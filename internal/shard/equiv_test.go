package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// The engine's reference is a loop over ds.Segments. Every other package's
// equivalence test compares its subject with the one-shard engine, so the
// one-shard engine itself must be pinned to something that shares no code
// with the tree walk — only the geometric predicates that define an answer.

// scanIDs returns the ids of the segments match accepts, ascending.
func scanIDs(ds *dataset.Dataset, match func(geom.Segment) bool) []uint32 {
	var ids []uint32
	for id, s := range ds.Segments {
		if match(s) {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// scanNearest returns the k smallest (distance, id) neighbors of pt in the
// rtree.Neighbor.Before order, the one tie order every engine answers in.
func scanNearest(ds *dataset.Dataset, pt geom.Point, k int) []rtree.Neighbor {
	if k <= 0 {
		return nil
	}
	var best []rtree.Neighbor
	for id, s := range ds.Segments {
		nb := rtree.Neighbor{ID: uint32(id), Dist: s.DistToPoint(pt), Seg: s}
		if len(best) == k && !nb.Before(best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return nb.Before(best[i]) })
		best = append(best, rtree.Neighbor{})
		copy(best[i+1:], best[i:])
		best[i] = nb
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// queries is one seeded workload for checkAgainstScan.
type queries struct {
	windows []geom.Rect
	points  []geom.Point // point queries, each asked at every eps
	eps     []float64
	nnPts   []geom.Point // NN queries, each asked as 1-NN and at every k
	ks      []int
}

// checkAgainstScan asks every query of qs of every pool and compares with
// the linear scan: filter and exact range/point answers as id sets, their
// records (SearchAppend with segments) as the same ids each beside its own
// segment, NN and k-NN answers as identical (distance, id, segment)
// sequences — where k cuts an equal-distance run, every shard count keeps
// the smallest ids. It reports the first divergence and returns whether
// there was none.
func checkAgainstScan(t *testing.T, ds *dataset.Dataset, pools []*Pool, qs queries) bool {
	t.Helper()
	fail := func(p *Pool, format string, args ...any) bool {
		t.Helper()
		t.Errorf("S=%d: "+format, append([]any{p.Shards()}, args...)...)
		return false
	}
	for _, w := range qs.windows {
		filter := scanIDs(ds, func(s geom.Segment) bool { return s.MBR().Intersects(w) })
		exact := scanIDs(ds, func(s geom.Segment) bool { return s.IntersectsRect(w) })
		for _, p := range pools {
			if got := p.FilterRangeAppend(nil, w); !sameIDSet(got, filter) {
				return fail(p, "FilterRange %v: %d ids, scan %d", w, len(got), len(filter))
			}
			if got := p.RangeAppend(nil, w); !sameIDSet(got, exact) {
				return fail(p, "Range %v: %d ids, scan %d", w, len(got), len(exact))
			}
			for _, mode := range []proto.Mode{proto.ModeData, proto.ModeCandidates} {
				var segs []geom.Segment
				q := proto.QueryMsg{Kind: proto.KindRange, Mode: mode, Window: w}
				got, want := p.SearchAppend(nil, &segs, q), exact
				if mode.Filters() {
					want = filter
				}
				if !sameIDSet(got, want) || !carriesOwnSegs(ds, got, segs) {
					return fail(p, "%v records of %v: %d ids and %d segments, scan %d", mode, w, len(got), len(segs), len(want))
				}
			}
		}
	}
	for _, pt := range qs.points {
		filter := scanIDs(ds, func(s geom.Segment) bool { return s.MBR().ContainsPoint(pt) })
		for _, p := range pools {
			if got := p.FilterPointAppend(nil, pt); !sameIDSet(got, filter) {
				return fail(p, "FilterPoint %v: %d ids, scan %d", pt, len(got), len(filter))
			}
		}
		for _, eps := range qs.eps {
			// The paper's point query: the MBR short-lists, incidence
			// within eps refines.
			exact := scanIDs(ds, func(s geom.Segment) bool {
				return s.MBR().ContainsPoint(pt) && s.DistToPoint(pt) <= eps
			})
			for _, p := range pools {
				if got := p.PointAppend(nil, pt, eps); !sameIDSet(got, exact) {
					return fail(p, "Point %v eps %g: %d ids, scan %d", pt, eps, len(got), len(exact))
				}
			}
		}
	}
	kmax := 1
	for _, k := range qs.ks {
		kmax = max(kmax, k)
	}
	for _, pt := range qs.nnPts {
		want := scanNearest(ds, pt, kmax)
		want1 := want[:min(1, len(want))]
		for _, p := range pools {
			var one []rtree.Neighbor
			if res := p.NearestWith(pt, nil); res.OK {
				one = []rtree.Neighbor{{ID: res.ID, Dist: res.Dist, Seg: ds.Seg(res.ID)}}
			}
			if !sameNeighbors(one, want1) {
				return fail(p, "Nearest %v: %+v, scan %v", pt, one, want1)
			}
			// 1-NN is k-NN at k = 1, whether or not qs.ks asks for it.
			if k1, _ := p.KNearestAppend(nil, pt, 1, nil); !sameNeighbors(k1, want1) {
				return fail(p, "KNearest(k=1) %v: %+v, Nearest %+v", pt, k1, one)
			}
			for _, k := range qs.ks {
				nbs, supported := p.KNearestAppend(nil, pt, k, nil)
				if wk := want[:min(max(k, 0), len(want))]; !supported || !sameNeighbors(nbs, wk) {
					return fail(p, "KNearest(k=%d) %v: %d neighbors, scan %d", k, pt, len(nbs), len(wk))
				}
			}
		}
	}
	return true
}

// carriesOwnSegs reports whether segs lies beside ids, each the segment of
// its own id.
func carriesOwnSegs(ds *dataset.Dataset, ids []uint32, segs []geom.Segment) bool {
	if len(segs) != len(ids) {
		return false
	}
	for i, id := range ids {
		if segs[i] != ds.Seg(id) {
			return false
		}
	}
	return true
}

// sameNeighbors reports whether a k-NN answer is the scan's, id for id and
// distance for distance.
func sameNeighbors(got, want []rtree.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestEngineMatchesLinearScan pins the engine on the paper's PA map, at one
// shard over a given tree (the unsharded server) and at 4 and 16 Hilbert
// shards, to the linear scan: 500 seeded queries per kind, point queries at
// two tolerances, NN as 1-NN and k-NN for k in {1, 8, 64}. All three pools
// equal the scan, hence each other.
func TestEngineMatchesLinearScan(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	ds := dataset.PA()
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Over(tree)
	if err != nil {
		t.Fatal(err)
	}
	pools := []*Pool{one}
	for _, s := range []int{4, 16} {
		p, err := New(ds, Config{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	checkAgainstScan(t, ds, pools, queries{
		windows: dataset.RangeQueries(ds, n, 31),
		points:  dataset.PointQueries(ds, n, 32),
		eps:     []float64{2.0, 40.0},
		nnPts:   dataset.NNQueries(ds, n, 33),
		ks:      []int{1, 8, 64},
	})
}

// TestEquivalenceQuick property-tests the engine against the linear scan
// over randomized small datasets: one shard over a given tree beside a
// random shard count. ~10% of segments are exact duplicates to force NN
// distance ties, half the query points are segment endpoints, and k runs
// from 0 past the item count. Empty and inverted windows must come back
// empty.
func TestEquivalenceQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 40+rng.Intn(260))

		tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Over(tree)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := New(ds, Config{Shards: 1 + rng.Intn(10)})
		if err != nil {
			t.Fatal(err)
		}
		pools := []*Pool{one, sharded}

		qs := queries{eps: []float64{2.0}, ks: []int{0, 1, 3, ds.Len() + 5}}
		for q := 0; q < 8; q++ {
			qs.windows = append(qs.windows, randomWindow(rng, ds.Extent))
			pt := randomPoint(rng, ds.Extent, ds)
			qs.points = append(qs.points, pt)
			qs.nnPts = append(qs.nnPts, pt)
		}
		if !checkAgainstScan(t, ds, pools, qs) {
			t.Errorf("seed %d", seed)
			return false
		}

		// Degenerate windows: empty and inverted rects answer empty.
		for _, w := range []geom.Rect{geom.EmptyRect(), {Min: geom.Point{X: 10, Y: 10}, Max: geom.Point{X: -10, Y: -10}}} {
			for _, p := range pools {
				if got := p.RangeAppend(nil, w); len(got) != 0 {
					t.Errorf("seed %d: S=%d Range(%v) = %d ids, want 0", seed, p.Shards(), w, len(got))
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// randomDataset builds a dataset of short random segments on a ~2km square,
// duplicating ~10% of them exactly so NN/k-NN distance ties actually occur.
func randomDataset(rng *rand.Rand, n int) *dataset.Dataset {
	const side = 2000.0
	segs := make([]geom.Segment, 0, n)
	for len(segs) < n {
		if len(segs) > 0 && rng.Float64() < 0.10 {
			segs = append(segs, segs[rng.Intn(len(segs))]) // exact duplicate: forced tie
			continue
		}
		a := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		ang := rng.Float64() * 2 * math.Pi
		l := 10 + rng.Float64()*120
		segs = append(segs, geom.Segment{A: a, B: geom.Point{X: a.X + l*math.Cos(ang), Y: a.Y + l*math.Sin(ang)}})
	}
	ext := geom.EmptyRect()
	for _, s := range segs {
		ext = ext.Union(s.MBR())
	}
	return &dataset.Dataset{Name: "quick", Segments: segs, RecordBytes: 32, Extent: ext}
}

func randomWindow(rng *rand.Rand, ext geom.Rect) geom.Rect {
	cx := ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X)
	cy := ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y)
	hw := rng.Float64() * (ext.Max.X - ext.Min.X) / 4
	hh := rng.Float64() * (ext.Max.Y - ext.Min.Y) / 4
	return geom.Rect{Min: geom.Point{X: cx - hw, Y: cy - hh}, Max: geom.Point{X: cx + hw, Y: cy + hh}}
}

// randomPoint picks either a uniform point or an exact segment endpoint (so
// point queries hit and distance-zero NN cases appear).
func randomPoint(rng *rand.Rand, ext geom.Rect, ds *dataset.Dataset) geom.Point {
	if rng.Intn(2) == 0 && ds.Len() > 0 {
		s := ds.Seg(uint32(rng.Intn(ds.Len())))
		if rng.Intn(2) == 0 {
			return s.A
		}
		return s.B
	}
	return geom.Point{
		X: ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X),
		Y: ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y),
	}
}
