package rtree_test

import (
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// discard is a no-op recorder that is not ops.Null, so the tree runs its
// instrumented walk: what every serving query paid before the kernel.
type discard struct{}

func (discard) Op(ops.Op, int)    {}
func (discard) Load(uint64, int)  {}
func (discard) Store(uint64, int) {}

// BenchmarkRangeKernel runs the paper's §5.4 range windows over the PA
// dataset through the serving kernel (filter only, and with exact refinement
// fused in) and through the instrumented walk under a no-op recorder (filter
// only, and followed by a refinement loop over every candidate).
func BenchmarkRangeKernel(b *testing.B) {
	ds := dataset.PA()
	tr, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		b.Fatal(err)
	}
	windows := dataset.RangeQueries(ds, 256, 1)
	var ids []uint32
	b.Run("kernel-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = tr.AppendRange(ids[:0], windows[i%len(windows)], nil)
		}
	})
	b.Run("kernel-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := windows[i%len(windows)]
			ids = tr.AppendRange(ids[:0], w, func(id uint32) bool { return ds.Seg(id).IntersectsRect(w) })
		}
	})
	b.Run("instrumented-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = tr.AppendSearch(ids[:0], windows[i%len(windows)], discard{})
		}
	})
	b.Run("instrumented-refine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := windows[i%len(windows)]
			ids = tr.AppendSearch(ids[:0], w, discard{})
			hits := ids[:0]
			for _, id := range ids {
				if ds.Seg(id).IntersectsRect(w) {
					hits = append(hits, id)
				}
			}
			ids = hits
		}
	})
}
