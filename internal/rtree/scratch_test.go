package rtree

import (
	"math/rand"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// buildScratchTree makes a few-thousand-segment tree with deliberately
// shared endpoints, so exact NN distance ties — the case where a divergent
// traversal order would change the winning id — actually occur.
func buildScratchTree(t *testing.T, n int) (*Tree, []geom.Segment) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	segs := make([]geom.Segment, n)
	items := make([]Item, n)
	var prev geom.Point
	for i := range segs {
		a := prev
		if i%8 == 0 {
			a = geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		}
		b := geom.Point{X: a.X + rng.Float64()*120 - 60, Y: a.Y + rng.Float64()*120 - 60}
		segs[i] = geom.Segment{A: a, B: b}
		items[i] = Item{ID: uint32(i), MBR: segs[i].MBR()}
		prev = b
	}
	tr, err := Build(items, Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, segs
}

// TestScratchPathsMatchPlainPaths drives the Append/With variants with a
// reused scratch across many queries and requires answers identical to the
// allocating entry points — ids included, so distance ties must resolve the
// same way.
func TestScratchPathsMatchPlainPaths(t *testing.T) {
	tr, segs := buildScratchTree(t, 4000)
	dist := func(pt geom.Point) DistFunc {
		return func(id uint32) float64 { return segs[id].DistToPoint(pt) }
	}
	rng := rand.New(rand.NewSource(99))
	var sc NNScratch
	var ids []uint32
	var nbs []Neighbor
	for q := 0; q < 300; q++ {
		pt := geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		w := geom.Rect{
			Min: geom.Point{X: pt.X - 300, Y: pt.Y - 300},
			Max: geom.Point{X: pt.X + 300, Y: pt.Y + 300},
		}

		want := tr.Search(w, ops.Null{})
		ids = tr.AppendSearch(ids[:0], w, ops.Null{})
		if len(want) != len(ids) {
			t.Fatalf("q%d: AppendSearch %d ids, Search %d", q, len(ids), len(want))
		}
		for i := range want {
			if want[i] != ids[i] {
				t.Fatalf("q%d: AppendSearch id[%d]=%d, Search %d", q, i, ids[i], want[i])
			}
		}

		id1, d1, ok1 := tr.Nearest(pt, dist(pt), ops.Null{})
		id2, d2, ok2 := tr.NearestWith(pt, dist(pt), ops.Null{}, &sc)
		if id1 != id2 || d1 != d2 || ok1 != ok2 {
			t.Fatalf("q%d: NearestWith (%d,%g,%v) != Nearest (%d,%g,%v)", q, id2, d2, ok2, id1, d1, ok1)
		}

		k := 1 + rng.Intn(8)
		wantN := tr.KNearest(pt, k, dist(pt), ops.Null{})
		nbs = tr.KNearestAppend(nbs[:0], pt, k, dist(pt), ops.Null{}, &sc)
		if len(wantN) != len(nbs) {
			t.Fatalf("q%d: KNearestAppend %d, KNearest %d", q, len(nbs), len(wantN))
		}
		for i := range wantN {
			if wantN[i] != nbs[i] {
				t.Fatalf("q%d k=%d: neighbor %d: %+v != %+v", q, k, i, nbs[i], wantN[i])
			}
		}
	}
}

// TestScratchSearchZeroAlloc pins the warm index-walk allocation count at
// zero for all three scratch query paths: the filter, the 1-NN walk and the
// k-NN kernel's fold.
func TestScratchSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tr, segs := buildScratchTree(t, 4000)
	pt := geom.Point{X: 5000, Y: 5000}
	w := geom.Rect{Min: geom.Point{X: 4000, Y: 4000}, Max: geom.Point{X: 6000, Y: 6000}}
	df := func(id uint32) float64 { return segs[id].DistToPoint(pt) }
	var sc NNScratch
	var ids []uint32
	var nbs []Neighbor
	if n := testing.AllocsPerRun(100, func() {
		ids = tr.AppendSearch(ids[:0], w, ops.Null{})
		_, _, _ = tr.NearestWith(pt, df, ops.Null{}, &sc)
		sc.ResetKNN()
		tr.KNearestCollect(pt, 5, nil, &sc)
		nbs = sc.DrainKNNAppend(nbs[:0])
	}); n != 0 {
		t.Fatalf("warm scratch queries: %.1f allocs/op, want 0", n)
	}
}
