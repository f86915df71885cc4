package rtree_test

import (
	"strconv"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// discard is a no-op recorder that is not ops.Null, so the tree runs its
// instrumented walk: what every serving query paid before the kernel.
type discard struct{}

func (discard) Op(ops.Op, int)    {}
func (discard) Load(uint64, int)  {}
func (discard) Store(uint64, int) {}

// BenchmarkRangeKernel runs the paper's §5.4 queries over the PA dataset
// through the serving kernel and through the instrumented walk under a
// no-op recorder, whose refinement reads the dataset's records:
//
//   - range windows: the kernel filtering alone, the kernel refined from
//     its leaves (AppendRange), the instrumented filter, and the
//     instrumented filter followed by a refinement loop over every candidate;
//   - point queries: AppendPoint, and the untraced point filter refined
//     against the dataset's records, candidate by candidate;
//   - nearest-neighbor points at k = 1 and k = 8: the kernel's leaf-distance
//     fold (KNearestCollect), and the instrumented walk with a DistFunc over
//     the dataset's records.
//
// The "point-dataset" row is how a serving pool answered before the leaves
// carried their segments; the instrumented rows price the Hypot-and-sort
// walk every serving k-NN ran before the k-NN kernel, as the instrumented
// range rows do for range.
func BenchmarkRangeKernel(b *testing.B) {
	ds := dataset.PA()
	tr, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		b.Fatal(err)
	}
	windows := dataset.RangeQueries(ds, 256, 1)
	points := dataset.PointQueries(ds, 256, 1)
	nnPoints := dataset.NNQueries(ds, 256, 1)
	const eps = proto.DefaultPointEps
	var ids []uint32
	b.Run("kernel-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = tr.AppendSearch(ids[:0], windows[i%len(windows)], ops.Null{})
		}
	})
	b.Run("kernel-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = tr.AppendRange(ids[:0], nil, windows[i%len(windows)], true, nil)
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
	b.Run("point-kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = tr.AppendPoint(ids[:0], nil, points[i%len(points)], eps, nil)
		}
	})
	b.Run("point-dataset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := points[i%len(points)]
			ids = tr.AppendSearchPoint(ids[:0], p, ops.Null{})
			hits := ids[:0]
			for _, id := range ids {
				if ds.Seg(id).ContainsPoint(p, eps) {
					hits = append(hits, id)
				}
			}
			ids = hits
		}
	})
	for _, k := range []int{1, 8} {
		var sc rtree.NNScratch
		var nbs []rtree.Neighbor
		b.Run("knn-kernel/k="+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.ResetKNN()
				tr.KNearestCollect(nnPoints[i%len(nnPoints)], k, nil, &sc, nil)
				nbs = sc.DrainKNNAppend(nbs[:0])
			}
		})
		var p geom.Point
		dist := func(id uint32) float64 { return ds.Seg(id).DistToPoint(p) }
		b.Run("knn-instrumented/k="+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p = nnPoints[i%len(nnPoints)]
				nbs = tr.KNearestAppend(nbs[:0], p, k, dist, discard{}, &sc)
			}
		})
	}
}
