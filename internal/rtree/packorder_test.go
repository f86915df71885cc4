package rtree_test

import (
	"sort"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/hilbert/hilbertref"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// refKeyed sorts items by precomputed reference keys.
type refKeyed struct {
	items []rtree.Item
	keys  []uint64
}

func (r *refKeyed) Len() int           { return len(r.items) }
func (r *refKeyed) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r *refKeyed) Swap(i, j int) {
	r.items[i], r.items[j] = r.items[j], r.items[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}

// TestPackOrderPinnedToReference builds PA and checks its pack order item
// for item against sort.Sort over keys from the bit-serial reference
// encoder. PA has tied centroid keys, so the test also pins the sort: a
// stable or radix sort would order the ties differently and change the
// tree every figure in results/ is measured on.
func TestPackOrderPinnedToReference(t *testing.T) {
	items := dataset.PA().Items()
	tr, err := rtree.Build(items, rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}

	want := append([]rtree.Item(nil), items...)
	bounds := geom.EmptyRect()
	for _, it := range want {
		bounds = bounds.Union(it.MBR)
	}
	q := hilbert.NewQuantizer(hilbert.Order, bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y)
	keys := make([]uint64, len(want))
	for i, it := range want {
		c := it.MBR.Center()
		cx, cy := q.Cell(c.X, c.Y)
		keys[i] = hilbertref.Encode(hilbert.Order, cx, cy)
	}
	sort.Sort(&refKeyed{items: want, keys: keys})

	ties := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("PA has no tied keys: the test no longer pins the sort")
	}
	got := tr.PackOrder()
	if len(got) != len(want) {
		t.Fatalf("pack order holds %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pack slot %d holds item %d, reference order has %d (%d tied keys)", i, got[i].ID, want[i].ID, ties)
		}
	}
	t.Logf("%d items, %d tied keys", len(want), ties)
}

// TestBuildRefusesOrderAboveMax: above order 32 the curve's shifts wrapped
// and keyed every item 0, so such a build packed in input order.
func TestBuildRefusesOrderAboveMax(t *testing.T) {
	items := []rtree.Item{{MBR: geom.Rect{Max: geom.Point{X: 1, Y: 1}}}}
	if _, err := rtree.Build(items, rtree.Config{HilbertOrder: hilbert.MaxOrder + 1}, ops.Null{}); err == nil {
		t.Fatalf("order %d accepted", hilbert.MaxOrder+1)
	}
	if _, err := rtree.Build(items, rtree.Config{HilbertOrder: hilbert.MaxOrder}, ops.Null{}); err != nil {
		t.Fatalf("order %d refused: %v", hilbert.MaxOrder, err)
	}
}

// BenchmarkHilbertSort sorts PA's items into pack order (keys, pair sort
// and the in-place gather), each iteration from the dataset's own order.
func BenchmarkHilbertSort(b *testing.B) {
	items := dataset.PA().Items()
	bounds := geom.EmptyRect()
	for _, it := range items {
		bounds = bounds.Union(it.MBR)
	}
	work := make([]rtree.Item, len(items))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, items)
		b.StartTimer()
		rtree.HilbertSort(work, bounds, 0)
	}
}
