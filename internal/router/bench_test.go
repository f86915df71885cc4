package router

import (
	"math/rand"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// benchRouter is the benchmarks' router over tc with its own leg counters
// attached: the benchmarks report legs/op, the figure the holder choice
// exists to keep down.
func benchRouter(b *testing.B, tc *testCluster) (*Router, *legCounter) {
	hub := obs.NewHub()
	r := newRouter(b, tc, func(cfg *Config) { cfg.Obs = hub })
	return r, newLegCounter(hub, tc)
}

// BenchmarkRouterFanout measures one routed window query end to end across
// a 3-backend R=2 in-process cluster: relevance, cover, concurrent legs over
// real TCP loopback, and the linear merge of ascending answers.
func BenchmarkRouterFanout(b *testing.B) {
	ds := clusterDataset(b)
	tc := startCluster(b, ds, 3, 2)
	r, legs := benchRouter(b, tc)

	rng := rand.New(rand.NewSource(12))
	extent := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 40000, Y: 40000}}
	windows := make([]geom.Rect, 64)
	for i := range windows {
		windows[i] = randWindow(rng, extent, 0.05)
	}
	var dst []uint32
	legs.since()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = r.RangeAppendUntil(dst[:0], windows[i%len(windows)], time.Time{})
		if err != nil {
			b.Fatalf("query: %v", err)
		}
	}
	b.ReportMetric(float64(sum(legs.since()))/float64(b.N), "legs/op")
}

// BenchmarkRouterKNN measures one routed 8-NN query: best-first range
// visit, one bound-carrying leg per open range, and the bounded merge.
func BenchmarkRouterKNN(b *testing.B) {
	ds := clusterDataset(b)
	tc := startCluster(b, ds, 3, 2)
	r, legs := benchRouter(b, tc)

	rng := rand.New(rand.NewSource(13))
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
	}
	sc := &shard.Scratch{}
	var nbrs []rtree.Neighbor
	legs.since()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		nbrs, err = r.KNearestAppendUntil(nbrs[:0], pts[i%len(pts)], 8, sc, time.Time{})
		if err != nil {
			b.Fatalf("knn: %v", err)
		}
	}
	b.ReportMetric(float64(sum(legs.since()))/float64(b.N), "legs/op")
}

// BenchmarkRouterBatch measures one routed 16-query batch of the cluster mix
// (points, 2 km windows and 8-NN, 50/30/20): grouped legs carrying every
// sub-query's first leg, and the k-NN visits that go on from them. legs/op
// is backend legs per batch.
func BenchmarkRouterBatch(b *testing.B) {
	ds := clusterDataset(b)
	tc := startCluster(b, ds, 3, 2)
	r, legs := benchRouter(b, tc)

	rng := rand.New(rand.NewSource(14))
	batches := make([][]proto.QueryMsg, 64)
	for i := range batches {
		batches[i] = clusterMixBatch(rng, ds)
	}
	items := make([]proto.BatchItem, 16)
	legs.since()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range items {
			items[j] = proto.BatchItem{IDs: items[j].IDs[:0], Recs: items[j].Recs[:0]}
		}
		r.RunQueryBatch(batches[i%len(batches)], items, time.Time{})
		for j := range items {
			if items[j].Err != 0 {
				b.Fatalf("item %d: code %d (%s)", j, items[j].Err, items[j].Text)
			}
		}
	}
	b.ReportMetric(float64(sum(legs.since()))/float64(b.N), "legs/op")
}
