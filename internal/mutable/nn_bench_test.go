package mutable

import (
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// BenchmarkNearest is 1-NN on PA over sixteen clean shards, beside k-NN at
// k = 1 over the same points: they are one walk, so the two rows must read
// alike, and like shard.BenchmarkNearest's S=16 pair — a mutable pool with
// empty overlays is the frozen engine.
func BenchmarkNearest(b *testing.B) {
	ds := dataset.PA()
	p, err := NewFromDataset(ds, 16, Config{CompactInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	points := dataset.NNQueries(ds, 64, 78)
	var sc shard.Scratch
	b.Run("clean16/NearestWith", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.NearestWith(points[i%len(points)], &sc)
		}
	})
	b.Run("clean16/KNearestAppend1", func(b *testing.B) {
		nbs := make([]rtree.Neighbor, 0, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nbs, _ = p.KNearestAppend(nbs[:0], points[i%len(points)], 1, &sc)
		}
	})
}
