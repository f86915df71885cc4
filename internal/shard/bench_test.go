package shard

import (
	"sync"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
	benchTree *rtree.Tree
)

func benchFixture(b *testing.B) (*dataset.Dataset, *rtree.Tree) {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = dataset.PA()
		t, err := rtree.Build(benchDS.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			b.Fatal(err)
		}
		benchTree = t
	})
	return benchDS, benchTree
}

// BenchmarkShardKNN pins the best-first NN scheduling cost: k-NN across
// shards should stay close to the monolithic tree because the first shard's
// answer prunes nearly all the rest.
func BenchmarkShardKNN(b *testing.B) {
	ds, tree := benchFixture(b)
	points := dataset.NNQueries(ds, 64, 78)

	b.Run("monolithic", func(b *testing.B) {
		mono, err := Over(ds, tree)
		if err != nil {
			b.Fatal(err)
		}
		var sc Scratch
		nbs := make([]rtree.Neighbor, 0, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nbs, _ = mono.KNearestAppend(nbs[:0], points[i%len(points)], 8, &sc)
		}
		reportQPS(b)
	})

	b.Run("sharded", func(b *testing.B) {
		p, err := New(ds, Config{Shards: 32})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		var sc Scratch
		nbs := make([]rtree.Neighbor, 0, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nbs, _ = p.KNearestAppend(nbs[:0], points[i%len(points)], 8, &sc)
		}
		reportQPS(b)
	})
}

func reportQPS(b *testing.B) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	}
}
