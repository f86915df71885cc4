package router

// freshness_test.go pins the routing layer's core liveness property: objects
// written AFTER the backends registered are visible to cluster reads, even
// when they land outside the MBRs the summaries reported — the exact hole a
// registration-frozen routing table leaves open (an object inserted into a
// range that registered empty, or moved outside its range's registered MBR,
// would be permanently invisible to range/point routing and pruned from the
// NN visit by its range's stale extent).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// startSparseCluster is startMutableCluster with R=1 (backend b holds range
// b only) and range emptyRg stripped of its items: that range registers with
// zero items and an empty MBR — the worst case for registration-time routing
// predicates. Returns the cluster, the per-backend pools, the cuts, and the
// stripped items (handy positions guaranteed to key into the empty range).
func startSparseCluster(t testing.TB, ds *dataset.Dataset, nBackends, emptyRg int) (*testCluster, []*mutable.Pool, []uint64, []rtree.Item) {
	t.Helper()
	part := shard.Cut(ds.Items(), nBackends)
	stripped := part.Ranges[emptyRg].Items
	if len(stripped) == 0 {
		t.Fatalf("range %d has no items to strip", emptyRg)
	}
	part.Ranges[emptyRg].Items = nil
	part.Ranges[emptyRg].MBR = geom.EmptyRect()

	tc := &testCluster{ds: ds, ranges: part.Ranges}
	var pools []*mutable.Pool
	for b := 0; b < nBackends; b++ {
		pools = append(pools, tc.serveMutable(t, hold(t, part, b, 1)))
	}
	return tc, pools, part.Cuts, stripped
}

func midpoint(seg geom.Segment) geom.Point {
	return geom.Point{X: (seg.A.X + seg.B.X) / 2, Y: (seg.A.Y + seg.B.Y) / 2}
}

// TestClusterReadsSeeFreshWrites is the headline regression: a write routed
// through the router into a range that registered EMPTY must be visible to
// range, point, and NN queries immediately after its ack — and a live object
// moved into that range must follow. A router that froze its routing
// predicates at registration fails every leg of this: the empty range's MBR
// intersects nothing (range/point fan-out never selects its holder) and
// sorts at +Inf MINDIST (the NN visit prunes the range the moment any other
// sets a bound). Each of the three reproductions — the insert, the move, and
// a write into a POPULATED range at a spot outside its summary MBR — is read
// back as the 1-NN of its own position on the very next query.
func TestClusterReadsSeeFreshWrites(t *testing.T) {
	ds := clusterDataset(t)
	const emptyRg = 2
	tc, _, _, stripped := startSparseCluster(t, ds, 4, emptyRg)
	r := newRouter(t, tc, nil)

	// Insert a fresh object at a stripped item's geometry: its write key
	// lands in the empty range by construction, outside every registered
	// MBR.
	id0 := uint32(ds.Len() + 101)
	seg0 := ds.Seg(stripped[0].ID)
	if _, _, owned, err := r.ApplyMove(id0, seg0); err != nil || !owned {
		t.Fatalf("insert into the empty range: owned=%v err=%v", owned, err)
	}

	ids, err := r.RangeAppendUntil(nil, seg0.MBR(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsU32(ids, id0) {
		t.Fatalf("range query over the fresh insert's MBR missed id %d (got %d ids) — "+
			"the empty range's registration MBR is routing reads", id0, len(ids))
	}

	mid := midpoint(seg0)
	ids, err = r.PointAppendUntil(nil, mid, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsU32(ids, id0) {
		t.Fatalf("point query at the fresh insert missed id %d", id0)
	}

	nbs, err := r.KNearestAppendUntil(nil, mid, 3, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	foundNN := false
	for _, nb := range nbs {
		if nb.ID == id0 {
			foundNN = true
			if nb.Dist != 0 {
				t.Fatalf("NN found id %d at dist %v, want 0 (query point on the segment)", id0, nb.Dist)
			}
		}
	}
	if !foundNN {
		t.Fatalf("NN at the fresh insert's midpoint missed id %d (got %v) — "+
			"the empty range's registered MBR pruned it", id0, nbs)
	}
	// Nothing else lies in the stripped range's space, so the insert is THE
	// nearest neighbor of its own endpoint.
	nearestIs := func(label string, pt geom.Point, id uint32, seg geom.Segment) {
		t.Helper()
		res, err := nearest1(r, pt)
		if err != nil {
			t.Fatal(err)
		}
		if want := seg.DistToPoint(pt); !res.OK || res.ID != id || res.Dist != want {
			t.Fatalf("%s: 1-NN at %v is id %d at dist %v, want id %d at %v", label, pt, res.ID, res.Dist, id, want)
		}
	}
	nearestIs("fresh insert", seg0.A, id0, seg0)

	// A live object moved across a range boundary into the empty range must
	// be found at its new position and gone from its old one.
	idY := tc.ranges[0].Items[0].ID
	oldSeg := ds.Seg(idY)
	newSeg := ds.Seg(stripped[1].ID)
	if _, existed, owned, err := r.ApplyMove(idY, newSeg); err != nil || !existed || !owned {
		t.Fatalf("move into the empty range: existed=%v owned=%v err=%v", existed, owned, err)
	}
	ids, err = r.RangeAppendUntil(nil, newSeg.MBR(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsU32(ids, idY) {
		t.Fatalf("range query at the moved object's new position missed id %d", idY)
	}
	ids, err = r.RangeAppendUntil(nil, oldSeg.MBR(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if containsU32(ids, idY) {
		t.Fatalf("moved id %d still answers at its old position", idY)
	}
	nearestIs("moved object", newSeg.A, idY, newSeg)
	if res, err := nearest1(r, oldSeg.A); err != nil || res.ID == idY {
		t.Fatalf("1-NN at the moved object's old position: id %d, err %v; id %d left", res.ID, err, idY)
	}

	// A populated range, written outside its summary MBR: a spot beyond the
	// map's corner keys into whichever range owns that corner of the curve,
	// and no registered MBR reaches it.
	idZ := uint32(ds.Len() + 102)
	far := geom.Point{X: ds.Extent.Max.X + 9000, Y: ds.Extent.Max.Y + 9000}
	segZ := geom.Segment{A: far, B: geom.Point{X: far.X + 30, Y: far.Y + 30}}
	s := r.snap()
	if rg := s.rangeForKey(shard.WriteKey(r.wq, segZ.MBR())); s.rangeMBR[rg].IsEmpty() || s.rangeMBR[rg].Intersects(segZ.MBR()) {
		t.Fatalf("range %d (MBR %v) is not a populated range short of %v", rg, s.rangeMBR[rg], segZ.MBR())
	}
	if _, _, owned, err := r.ApplyMove(idZ, segZ); err != nil || !owned {
		t.Fatalf("insert beyond the corner: owned=%v err=%v", owned, err)
	}
	nearestIs("write outside its range's MBR", geom.Point{X: far.X + 1, Y: far.Y - 2}, idZ, segZ)
}

// TestRouterMutableQuickEquivalence drives a random stream of inserts (some
// re-inserting live ids, fresh and base), moves, and deletes through the
// router and through a monolithic mutable pool, interleaving range/point/NN
// queries and a range query over every upserted object's previous MBR — the
// cluster must stay indistinguishable from the single-process truth the
// whole way.
func TestRouterMutableQuickEquivalence(t *testing.T) {
	ds := clusterDataset(t)
	tc, _, _ := startMutableCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)
	truth, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatalf("truth pool: %v", err)
	}
	t.Cleanup(truth.Close)

	rng := rand.New(rand.NewSource(41))
	ext := ds.Extent
	randSeg := func() geom.Segment {
		x := ext.Min.X + rng.Float64()*ext.Width()
		y := ext.Min.Y + rng.Float64()*ext.Height()
		return geom.Segment{
			A: geom.Point{X: x, Y: y},
			B: geom.Point{X: x + rng.Float64()*120 - 60, Y: y + rng.Float64()*120 - 60},
		}
	}
	var psc shard.Scratch
	check := func(step int) {
		t.Helper()
		w := randWindow(rng, ext, 0.03+0.2*rng.Float64())
		got, err := r.RangeAppendUntil(nil, w, time.Time{})
		if err != nil {
			t.Fatalf("step %d range: %v", step, err)
		}
		sameIDs(t, "range", got, truth.RangeAppend(nil, w))

		pt := geom.Point{X: ext.Min.X + rng.Float64()*ext.Width(), Y: ext.Min.Y + rng.Float64()*ext.Height()}
		got, err = r.PointAppendUntil(nil, pt, 2.0, time.Time{})
		if err != nil {
			t.Fatalf("step %d point: %v", step, err)
		}
		sameIDs(t, "point", got, truth.PointAppend(nil, pt, 2.0))

		gotN, err := r.KNearestAppendUntil(nil, pt, 8, nil, time.Time{})
		if err != nil {
			t.Fatalf("step %d knn: %v", step, err)
		}
		wantN, ok := truth.KNearestAppend(nil, pt, 8, &psc)
		if !ok {
			t.Fatalf("step %d: truth pool declined k-NN", step)
		}
		if len(gotN) != len(wantN) {
			t.Fatalf("step %d knn: %d neighbors, truth %d", step, len(gotN), len(wantN))
		}
		for i := range gotN {
			if gotN[i] != wantN[i] {
				t.Fatalf("step %d knn rank %d: %+v, truth %+v", step, i, gotN[i], wantN[i])
			}
		}
	}

	// leftBehind checks the object's previous place after an upsert: a range
	// query over its previous MBR answers what the truth pool answers, so no
	// backend kept the copy it left.
	leftBehind := func(op int, id uint32, prev geom.Segment) {
		t.Helper()
		if prev == (geom.Segment{}) {
			return
		}
		got, err := r.RangeAppendUntil(nil, prev.MBR(), time.Time{})
		if err != nil {
			t.Fatalf("op %d range over %d's previous MBR: %v", op, id, err)
		}
		sameIDs(t, fmt.Sprintf("op %d range over %d's previous MBR", op, id), got, truth.RangeAppend(nil, prev.MBR()))
	}
	live := func(fresh []uint32) uint32 {
		if len(fresh) > 0 && rng.Intn(2) == 0 {
			return fresh[rng.Intn(len(fresh))]
		}
		return uint32(rng.Intn(ds.Len()))
	}

	nextID := uint32(ds.Len() + 1000)
	var fresh []uint32
	for i := 0; i < 90; i++ {
		op := rng.Intn(10)
		switch {
		case op < 4 || (op >= 8 && len(fresh) == 0): // insert a new id, or re-insert a live one
			id := nextID
			if rng.Intn(3) == 0 {
				id = live(fresh)
			} else {
				nextID++
				fresh = append(fresh, id)
			}
			seg, prev := randSeg(), truth.SegOf(id)
			_, ex1, _, err1 := r.ApplyMove(id, seg)
			_, ex2, _, err2 := truth.ApplyMove(id, seg)
			if err1 != nil || err2 != nil || ex1 != ex2 {
				t.Fatalf("op %d insert %d: cluster existed=%v err=%v, truth existed=%v err=%v",
					i, id, ex1, err1, ex2, err2)
			}
			leftBehind(i, id, prev)
		case op < 8: // move a fresh or base object
			id := live(fresh)
			seg, prev := randSeg(), truth.SegOf(id)
			_, ex1, _, err1 := r.ApplyMove(id, seg)
			_, ex2, _, err2 := truth.ApplyMove(id, seg)
			if err1 != nil || err2 != nil || ex1 != ex2 {
				t.Fatalf("op %d move %d: cluster existed=%v err=%v, truth existed=%v err=%v",
					i, id, ex1, err1, ex2, err2)
			}
			leftBehind(i, id, prev)
		default: // delete a fresh object
			j := rng.Intn(len(fresh))
			id := fresh[j]
			fresh = append(fresh[:j], fresh[j+1:]...)
			_, ex1, _, err1 := r.ApplyDelete(id)
			_, ex2, _, err2 := truth.ApplyDelete(id)
			if err1 != nil || err2 != nil || ex1 != ex2 {
				t.Fatalf("op %d delete %d: cluster existed=%v err=%v, truth existed=%v err=%v",
					i, id, ex1, err1, ex2, err2)
			}
		}
		if i%9 == 0 {
			check(i)
		}
	}
	check(90)
	// Whole-world sweep: nothing lost, nothing duplicated, nothing stale.
	sweep := ext.Expand(500)
	got, err := r.RangeAppendUntil(nil, sweep, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "sweep", got, truth.RangeAppend(nil, sweep))
}
