package rtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// itemSet is a quick-generatable random item collection.
type itemSet struct {
	items []Item
	segs  []geom.Segment
}

// Generate implements quick.Generator: between 1 and 400 random short
// segments in a 1000×1000 extent.
func (itemSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(400)
	var s itemSet
	s.items = make([]Item, n)
	s.segs = make([]geom.Segment, n)
	for i := 0; i < n; i++ {
		a := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		seg := geom.Segment{
			A: a,
			B: geom.Point{X: a.X + r.Float64()*30 - 15, Y: a.Y + r.Float64()*30 - 15},
		}
		s.segs[i] = seg
		s.items[i] = SegItem(seg, uint32(i))
	}
	return reflect.ValueOf(s)
}

// window is a quick-generatable query window.
type window struct{ r geom.Rect }

// Generate implements quick.Generator.
func (window) Generate(r *rand.Rand, size int) reflect.Value {
	min := geom.Point{X: r.Float64()*1100 - 50, Y: r.Float64()*1100 - 50}
	return reflect.ValueOf(window{geom.Rect{
		Min: min,
		Max: geom.Point{X: min.X + r.Float64()*200, Y: min.Y + r.Float64()*200},
	}})
}

// TestQuickSearchEquivalence: for arbitrary item sets and windows, the
// packed R-tree's filtering equals the brute-force MBR scan.
func TestQuickSearchEquivalence(t *testing.T) {
	f := func(s itemSet, w window) bool {
		tr, err := Build(s.items, Config{}, ops.Null{})
		if err != nil {
			return false
		}
		got := map[uint32]bool{}
		for _, id := range tr.Search(w.r, ops.Null{}) {
			got[id] = true
		}
		for i, seg := range s.segs {
			want := w.r.Intersects(seg.MBR())
			if got[uint32(i)] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNearestOptimality: the NN answer is never farther than any item.
func TestQuickNearestOptimality(t *testing.T) {
	f := func(s itemSet, px, py float64) bool {
		px = math.Mod(math.Abs(px), 1000)
		py = math.Mod(math.Abs(py), 1000)
		p := geom.Point{X: px, Y: py}
		tr, err := Build(s.items, Config{}, ops.Null{})
		if err != nil {
			return false
		}
		df := func(id uint32) float64 { return s.segs[id].DistToPoint(p) }
		_, d, ok := tr.Nearest(p, df, ops.Null{})
		if !ok {
			return false
		}
		for _, seg := range s.segs {
			if seg.DistToPoint(p) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPackInvariants: structural invariants hold for arbitrary inputs.
func TestQuickPackInvariants(t *testing.T) {
	f := func(s itemSet) bool {
		tr, err := Build(s.items, Config{}, ops.Null{})
		if err != nil {
			return false
		}
		if tr.Len() != len(s.items) {
			return false
		}
		if len(tr.PackOrder()) != len(s.items) {
			return false
		}
		// Height consistent with fanout.
		f := tr.Fanout()
		maxItems := 1
		for i := 0; i < tr.Height(); i++ {
			maxItems *= f
		}
		if len(s.items) > maxItems {
			return false
		}
		// A whole-extent search returns everything exactly once.
		all := tr.Search(tr.Bounds(), ops.Null{})
		if len(all) != len(s.items) {
			return false
		}
		seen := map[uint32]bool{}
		for _, id := range all {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKNNOrdering: for arbitrary inputs, k-NN results are sorted and
// prefix-consistent (the k-NN list's head equals the (k-1)-NN list).
func TestQuickKNNOrdering(t *testing.T) {
	f := func(s itemSet, px, py float64, kRaw uint8) bool {
		p := geom.Point{X: math.Mod(math.Abs(px), 1000), Y: math.Mod(math.Abs(py), 1000)}
		k := 2 + int(kRaw)%10
		tr, err := Build(s.items, Config{}, ops.Null{})
		if err != nil {
			return false
		}
		df := func(id uint32) float64 { return s.segs[id].DistToPoint(p) }
		big := tr.KNearest(p, k, df, ops.Null{})
		small := tr.KNearest(p, k-1, df, ops.Null{})
		for i := 1; i < len(big); i++ {
			if big[i].Dist < big[i-1].Dist {
				return false
			}
		}
		for i := range small {
			if small[i].Dist != big[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubsetBudget: extraction never exceeds the budget and always
// includes the matching items when they fit.
func TestQuickSubsetBudget(t *testing.T) {
	f := func(s itemSet, w window, budgetKB uint8) bool {
		if len(s.items) < 10 {
			return true
		}
		tr, err := Build(s.items, Config{}, ops.Null{})
		if err != nil {
			return false
		}
		budget := Budget{Bytes: (8 + int(budgetKB)%64) * 1024, RecordBytes: 76}
		ship, err := tr.ExtractSubset(w.r, budget, ops.Null{})
		if err != nil {
			return false
		}
		if ship.DataBytes(76)+ship.IndexBytes() > budget.Bytes {
			return false
		}
		if !ship.Coverage.IsEmpty() {
			shipped := map[uint32]bool{}
			for _, it := range ship.Items {
				shipped[it.ID] = true
			}
			for _, id := range tr.Search(ship.Coverage, ops.Null{}) {
				if !shipped[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
