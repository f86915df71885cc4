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
		mono, err := Over(tree)
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

// BenchmarkNearest is 1-NN on PA at one shard (the unsharded server) and at
// sixteen, beside k-NN at k = 1 over the same points: they are one walk, so
// the rows of a pair must read alike — a 1-NN row that reads slower is a
// special case growing back.
func BenchmarkNearest(b *testing.B) {
	ds, tree := benchFixture(b)
	points := dataset.NNQueries(ds, 64, 78)
	one, err := Over(tree)
	if err != nil {
		b.Fatal(err)
	}
	sixteen, err := New(ds, Config{Shards: 16})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *Pool
	}{{"S=1", one}, {"S=16", sixteen}} {
		var sc Scratch
		b.Run(c.name+"/NearestWith", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.p.NearestWith(points[i%len(points)], &sc)
			}
		})
		b.Run(c.name+"/KNearestAppend1", func(b *testing.B) {
			nbs := make([]rtree.Neighbor, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nbs, _ = c.p.KNearestAppend(nbs[:0], points[i%len(points)], 1, &sc)
			}
		})
	}
}

func reportQPS(b *testing.B) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	}
}
