package mutable_test

import (
	"fmt"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/mutable"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
	"mobispatial/internal/stack"
)

// TestShardTreesPackedAsCut: a pool packs each shard's base from its cut
// run in the order the cut left it, so the pool's leaves in shard order are
// shard.PartitionHilbert's order of the items it holds. Both ways a server
// builds its pool are checked on NYC: NewFromDataset (4 shards over the
// whole map) and a partitioned backend, stack.Server{Partition: "i/3"} at
// two replicas, whose shards are its held ranges of the whole map's cut.
func TestShardTreesPackedAsCut(t *testing.T) {
	ds := dataset.NYC()
	cut, _ := shard.PartitionHilbert(ds.Items(), 3, hilbert.Order)

	t.Run("NewFromDataset", func(t *testing.T) {
		p, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1, CompactMaxAge: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		want, _ := shard.PartitionHilbert(ds.Items(), 4, hilbert.Order)
		packedAsCut(t, p, want)
		var whole []rtree.Item
		for _, rg := range cut {
			whole = append(whole, rg.Items...)
		}
		if got := poolLeaves(p); !slices.Equal(got, whole) {
			t.Errorf("the pool's leaves in shard order are not PartitionHilbert's order")
		}
	})
	for i := 0; i < 3; i++ {
		t.Run(fmt.Sprintf("partition %d/3", i), func(t *testing.T) {
			st, err := stack.Server{Dataset: ds, Partition: fmt.Sprintf("%d/3", i), Replicas: 2}.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			// The held ranges are i and i-1 mod 3; the shards sit in key order.
			held := []shard.Range{cut[i], cut[(i+2)%3]}
			slices.SortFunc(held, func(a, b shard.Range) int { return a.Index - b.Index })
			packedAsCut(t, st.Pool, held)
		})
	}
}

// packedAsCut checks that p's shard i packs runs[i].Items in order.
func packedAsCut(t *testing.T, p *mutable.Pool, runs []shard.Range) {
	t.Helper()
	if p.NumShards() != len(runs) {
		t.Fatalf("%d shards, %d cut runs", p.NumShards(), len(runs))
	}
	for i, rg := range runs {
		if got := mutable.BaseLeaves(p, i); !slices.Equal(got, rg.Items) {
			t.Errorf("shard %d: its %d leaves are not cut run %d's %d items in cut order", i, len(got), rg.Index, len(rg.Items))
		}
	}
}

// poolLeaves is every shard's base leaves, in shard order.
func poolLeaves(p *mutable.Pool) []rtree.Item {
	var out []rtree.Item
	for i := 0; i < p.NumShards(); i++ {
		out = append(out, mutable.BaseLeaves(p, i)...)
	}
	return out
}
