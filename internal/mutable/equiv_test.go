package mutable

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// TestUpdatableEquivalenceQuick property-tests the updatable pool against a
// from-scratch packed build of the same final item set: after any random
// interleaving of inserts, deletes, and moves — with compactions forced at
// random points, including queries issued while a freeze is held open so
// the three-layer (base + frozen + live) read path is exercised — range and
// point answers must match the fresh build as id sets, and NN/k-NN answers
// must be identical (distance, id) sequences (~10% of segments are exact
// duplicates to force ties, which both sides resolve to the smaller id).
func TestUpdatableEquivalenceQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 30+rng.Intn(170))

		p, err := NewFromDataset(ds, 1+rng.Intn(4), Config{CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		// model is the ground truth: live id -> live geometry.
		model := make(map[uint32]geom.Segment, ds.Len())
		for id := 0; id < ds.Len(); id++ {
			model[uint32(id)] = ds.Seg(uint32(id))
		}
		maxID := uint32(ds.Len() + 48)

		nops := 60 + rng.Intn(240)
		for op := 0; op < nops; op++ {
			id := uint32(rng.Intn(int(maxID)))
			switch rng.Intn(4) {
			case 0: // insert (possibly upsert)
				seg := randomSeg(rng, ds.Extent)
				_, existed, owned, err := p.ApplyMove(id, seg)
				if err != nil || !owned {
					t.Errorf("seed %d: insert(%d): existed=%v owned=%v err=%v", seed, id, existed, owned, err)
					return false
				}
				if _, had := model[id]; existed != had {
					t.Errorf("seed %d: insert(%d) existed=%v, model had=%v", seed, id, existed, had)
					return false
				}
				model[id] = seg
			case 1: // delete (known or unknown id)
				_, existed, _, err := p.ApplyDelete(id)
				if err != nil {
					t.Errorf("seed %d: delete(%d): %v", seed, id, err)
					return false
				}
				if _, had := model[id]; existed != had {
					t.Errorf("seed %d: delete(%d) existed=%v, model had=%v", seed, id, existed, had)
					return false
				}
				delete(model, id)
			case 2: // move
				seg := randomSeg(rng, ds.Extent)
				_, existed, owned, err := p.ApplyMove(id, seg)
				if err != nil || !owned {
					t.Errorf("seed %d: move(%d): owned=%v err=%v", seed, id, owned, err)
					return false
				}
				if _, had := model[id]; existed != had {
					t.Errorf("seed %d: move(%d) existed=%v, model had=%v", seed, id, existed, had)
					return false
				}
				model[id] = seg
			case 3: // compaction events
				switch rng.Intn(3) {
				case 0:
					p.ForceCompact()
				case 1:
					p.CompactShard(rng.Intn(p.NumShards()))
				case 2:
					// Hold a freeze open across a query round so the
					// frozen layer is live on the read path, then finish.
					s := p.shards[rng.Intn(p.NumShards())]
					if f := s.freeze(); f != nil {
						if !agreesWithFresh(t, seed, rng, p, model, ds) {
							return false
						}
						s.finishCompact(f)
					}
				}
			}
			if p.Len() != len(model) {
				t.Errorf("seed %d: op %d: Len=%d, model=%d", seed, op, p.Len(), len(model))
				return false
			}
			if op%29 == 0 && !agreesWithFresh(t, seed, rng, p, model, ds) {
				return false
			}
		}

		p.ForceCompact()
		for i := 0; i < p.NumShards(); i++ {
			if p.Pending(i) != 0 {
				t.Errorf("seed %d: shard %d pending %d after ForceCompact", seed, i, p.Pending(i))
				return false
			}
		}
		return agreesWithFresh(t, seed, rng, p, model, ds)
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// freshRef is a from-scratch packed build over the model's final item set —
// the oracle the updated pool must agree with.
type freshRef struct {
	tree  *rtree.Tree
	model map[uint32]geom.Segment
}

func buildFresh(t *testing.T, model map[uint32]geom.Segment) *freshRef {
	t.Helper()
	items := make([]rtree.Item, 0, len(model))
	for id, seg := range model {
		items = append(items, rtree.SegItem(seg, id))
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	tree, err := rtree.Build(items, rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	return &freshRef{tree: tree, model: model}
}

func (r *freshRef) dist(pt geom.Point) func(id uint32) float64 {
	return func(id uint32) float64 { return r.model[id].DistToPoint(pt) }
}

func agreesWithFresh(t *testing.T, seed int64, rng *rand.Rand, p *Pool, model map[uint32]geom.Segment, ds *dataset.Dataset) bool {
	t.Helper()
	ref := buildFresh(t, model)
	ext := ds.Extent
	for q := 0; q < 6; q++ {
		w := randomWindow(rng, ext)
		if !sameIDSet(ref.tree.AppendSearch(nil, w, ops.Null{}), filterRange(p, nil, w)) {
			t.Errorf("seed %d: FilterRange mismatch on %v", seed, w)
			return false
		}
		wantR := refRange(ref, w)
		if !sameIDSet(wantR, p.RangeAppend(nil, w)) {
			t.Errorf("seed %d: Range mismatch on %v: want %v got %v", seed, w, wantR, p.RangeAppend(nil, w))
			return false
		}

		pt := randomLivePoint(rng, ext, model)
		if !sameIDSet(ref.tree.AppendSearchPoint(nil, pt, ops.Null{}), filterPoint(p, nil, pt)) {
			t.Errorf("seed %d: FilterPoint mismatch at %v", seed, pt)
			return false
		}
		if !sameIDSet(refPoint(ref, pt, 2.0), p.PointAppend(nil, pt, 2.0)) {
			t.Errorf("seed %d: Point mismatch at %v", seed, pt)
			return false
		}

		wantID, wantD, wantOK := ref.tree.NearestWith(pt, ref.dist(pt), ops.Null{}, nil)
		got := p.NearestWith(pt, nil)
		if wantOK != got.OK || (wantOK && wantD != got.Dist) {
			t.Errorf("seed %d: Nearest mismatch at %v: want (%d,%g,%v) got %+v", seed, pt, wantID, wantD, wantOK, got)
			return false
		}

		for _, k := range []int{1, 3, len(model) + 2} {
			var sc rtree.NNScratch
			ref.tree.KNearestCollect(pt, k, nil, &sc, nil)
			want := sc.DrainKNNAppend(nil)
			gotK, ok := p.KNearestAppend(nil, pt, k, nil)
			if !ok || !sameNeighbors(model, pt, want, gotK) {
				t.Errorf("seed %d: KNearest(k=%d) mismatch at %v: want %d nbs, got %d nbs", seed, k, pt, len(want), len(gotK))
				return false
			}
			// 1-NN is k-NN at k = 1.
			if k == 1 && (got.OK != (len(gotK) == 1) || got.OK && got.Dist != gotK[0].Dist) {
				t.Errorf("seed %d: Nearest %+v, KNearest(k=1) %v at %v", seed, got, gotK, pt)
				return false
			}
			// The router's bound is a hint: every neighbor closer than it
			// is in the answer, up to k, whatever else is.
			if len(want) == 0 {
				continue
			}
			bound := want[len(want)/2].Dist
			gotB, _ := p.KNearestBoundedAppend(nil, pt, k, bound, nil)
			for i, nb := range want {
				if nb.Dist >= bound {
					break
				}
				if i >= len(gotB) || gotB[i].Dist != nb.Dist || model[gotB[i].ID].DistToPoint(pt) != nb.Dist {
					t.Errorf("seed %d: KNearestBounded(k=%d, bound=%g) at %v lost neighbor %d at %g: got %v", seed, k, bound, pt, i, nb.Dist, gotB)
					return false
				}
			}
		}
	}
	return true
}

func refRange(r *freshRef, w geom.Rect) []uint32 {
	cands := r.tree.AppendSearch(nil, w, ops.Null{})
	out := cands[:0]
	for _, id := range cands {
		if r.model[id].IntersectsRect(w) {
			out = append(out, id)
		}
	}
	return out
}

func refPoint(r *freshRef, pt geom.Point, eps float64) []uint32 {
	cands := r.tree.AppendSearchPoint(nil, pt, ops.Null{})
	out := cands[:0]
	for _, id := range cands {
		if r.model[id].ContainsPoint(pt, eps) {
			out = append(out, id)
		}
	}
	return out
}

func sameIDSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint32(nil), a...)
	bs := append([]uint32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// sameNeighbors compares two k-NN answers id for id and distance for
// distance, recomputing each reported distance from the live model so stale
// geometry cannot sneak through on either side.
func sameNeighbors(model map[uint32]geom.Segment, pt geom.Point, a, b []rtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || i > 0 && !a[i-1].Before(a[i]) {
			return false
		}
		if sa, ok := model[a[i].ID]; !ok || sa.DistToPoint(pt) != a[i].Dist {
			return false
		}
	}
	return true
}

// randomDataset builds short random segments on a ~2km square, duplicating
// ~10% exactly so NN/k-NN distance ties actually occur.
func randomDataset(rng *rand.Rand, n int) *dataset.Dataset {
	const side = 2000.0
	segs := make([]geom.Segment, 0, n)
	for len(segs) < n {
		if len(segs) > 0 && rng.Float64() < 0.10 {
			segs = append(segs, segs[rng.Intn(len(segs))])
			continue
		}
		segs = append(segs, randomSeg(rng, geom.Rect{Max: geom.Point{X: side, Y: side}}))
	}
	ext := geom.EmptyRect()
	for _, s := range segs {
		ext = ext.Union(s.MBR())
	}
	return &dataset.Dataset{Name: "quick", Segments: segs, RecordBytes: 32, Extent: ext}
}

func randomSeg(rng *rand.Rand, ext geom.Rect) geom.Segment {
	a := geom.Point{
		X: ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X),
		Y: ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y),
	}
	ang := rng.Float64() * 2 * math.Pi
	l := 10 + rng.Float64()*120
	return geom.Segment{A: a, B: geom.Point{X: a.X + l*math.Cos(ang), Y: a.Y + l*math.Sin(ang)}}
}

func randomWindow(rng *rand.Rand, ext geom.Rect) geom.Rect {
	cx := ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X)
	cy := ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y)
	hw := rng.Float64() * (ext.Max.X - ext.Min.X) / 4
	hh := rng.Float64() * (ext.Max.Y - ext.Min.Y) / 4
	return geom.Rect{Min: geom.Point{X: cx - hw, Y: cy - hh}, Max: geom.Point{X: cx + hw, Y: cy + hh}}
}

// randomLivePoint picks a uniform point or an exact endpoint of a live
// segment (so point queries hit and distance-zero NN cases appear).
func randomLivePoint(rng *rand.Rand, ext geom.Rect, model map[uint32]geom.Segment) geom.Point {
	if rng.Intn(2) == 0 && len(model) > 0 {
		for _, s := range model { // first map entry: arbitrary but fine
			if rng.Intn(2) == 0 {
				return s.A
			}
			return s.B
		}
	}
	return geom.Point{
		X: ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X),
		Y: ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y),
	}
}
