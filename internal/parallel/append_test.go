package parallel

import (
	"testing"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/rtree"
)

// TestAppendMatchesSingle requires the query paths to give identical answers
// with buffers and scratch reused across every query of the workload as with
// a nil dst and a nil scratch each time.
func TestAppendMatchesSingle(t *testing.T) {
	ds, tree := fixture(t)
	p, err := New(ds, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	windows := dataset.RangeQueries(ds, 80, 7)
	points := dataset.PointQueries(ds, 80, 8)
	nnPts := dataset.NNQueries(ds, 80, 9)

	var sc Scratch
	var ids []uint32
	var nbs []rtree.Neighbor
	for i, w := range windows {
		want := p.RangeAppend(nil, w)
		ids = p.RangeAppend(ids[:0], w)
		if !sameIDs(want, ids) {
			t.Fatalf("range %d: append %v != %v", i, ids, want)
		}
		want = p.FilterRangeAppend(nil, w)
		ids = p.FilterRangeAppend(ids[:0], w)
		if !sameIDs(want, ids) {
			t.Fatalf("filter-range %d: append %v != %v", i, ids, want)
		}
	}
	for i, pt := range points {
		want := p.PointAppend(nil, pt, core.PointEps)
		ids = p.PointAppend(ids[:0], pt, core.PointEps)
		if !sameIDs(want, ids) {
			t.Fatalf("point %d: append %v != %v", i, ids, want)
		}
		want = p.FilterPointAppend(nil, pt)
		ids = p.FilterPointAppend(ids[:0], pt)
		if !sameIDs(want, ids) {
			t.Fatalf("filter-point %d: append %v != %v", i, ids, want)
		}
	}
	for i, pt := range nnPts {
		if got, want := p.NearestWith(pt, &sc), p.NearestWith(pt, nil); got != want {
			t.Fatalf("nn %d: scratch %+v != %+v", i, got, want)
		}
		want, okW := p.KNearestAppend(nil, pt, 5, nil)
		var ok bool
		nbs, ok = p.KNearestAppend(nbs[:0], pt, 5, &sc)
		if ok != okW || len(nbs) != len(want) {
			t.Fatalf("knn %d: append (%d,%v) != (%d,%v)", i, len(nbs), ok, len(want), okW)
		}
		for j := range want {
			if nbs[j] != want[j] {
				t.Fatalf("knn %d: neighbor %d: %+v != %+v", i, j, nbs[j], want[j])
			}
		}
	}
}

// TestAppendPreservesPrefix checks the append contract: existing dst
// contents stay untouched.
func TestAppendPreservesPrefix(t *testing.T) {
	ds, tree := fixture(t)
	p, err := New(ds, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := dataset.RangeQueries(ds, 1, 7)[0]
	prefix := []uint32{111, 222, 333}
	out := p.RangeAppend(prefix, w)
	if len(out) < 3 || out[0] != 111 || out[1] != 222 || out[2] != 333 {
		t.Fatalf("prefix clobbered: %v", out[:3])
	}
	if !sameIDs(out[3:], p.RangeAppend(nil, w)) {
		t.Fatalf("suffix wrong: %v", out[3:])
	}
}

// TestAppendZeroAlloc pins warm append-path query allocations at zero for
// the R-tree index.
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, tree := fixture(t)
	p, err := New(ds, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Several windows, the whole extent among them, so the fused kernel's
	// three arms all run warm: contained run, contained leaf, and the
	// refinement closure on a straddling MBR. A closure that escaped into
	// the tree would show here as one allocation per RangeAppend.
	windows := append(dataset.RangeQueries(ds, 15, 7), tree.Bounds())
	pt := dataset.NNQueries(ds, 1, 9)[0]
	var sc Scratch
	var ids []uint32
	var nbs []rtree.Neighbor
	for _, w := range windows {
		ids = p.RangeAppend(ids[:0], w) // grow the result buffer once
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		ids = p.RangeAppend(ids[:0], windows[i%len(windows)])
		i++
		ids = p.PointAppend(ids[:0], pt, core.PointEps)
		_ = p.NearestWith(pt, &sc)
		nbs, _ = p.KNearestAppend(nbs[:0], pt, 5, &sc)
	}); n != 0 {
		t.Fatalf("warm append queries: %.1f allocs/op, want 0", n)
	}
}
