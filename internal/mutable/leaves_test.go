package mutable

import (
	"math/rand"
	"testing"

	"mobispatial/internal/geom"
)

// TestLeavesCarryTheirSegments: a clean shard answers range, point and k-NN
// queries from the segments its base's leaves carry, so after any history of
// writes and compactions every leaf of every base must hold its id's live
// geometry. Held ids are moved (some twice, across a compaction, so a
// rebuilt base's carried-over leaves are checked too), fresh ids inserted
// and a few ids deleted.
func TestLeavesCarryTheirSegments(t *testing.T) {
	p, ds := testPool(t, 3000, 4)
	rng := rand.New(rand.NewSource(11))
	ext := geom.Rect{Max: geom.Point{X: 2000, Y: 2000}}
	n := uint32(ds.Len())
	for round := 0; round < 2; round++ {
		for i := 0; i < 200; i++ {
			if _, _, _, err := p.ApplyMove(uint32(rng.Intn(int(n))), randomSeg(rng, ext)); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := p.ApplyMove(n+uint32(round*200+i), randomSeg(rng, ext)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if _, _, _, err := p.ApplyDelete(uint32(rng.Intn(int(n)))); err != nil {
				t.Fatal(err)
			}
		}
		p.ForceCompact()

		leaves := 0
		for i, s := range p.shards {
			if pend := p.Pending(i); pend != 0 {
				t.Fatalf("round %d shard %d: %d pending after ForceCompact", round, i, pend)
			}
			for _, it := range s.base.Load().tree.PackOrder() {
				leaves++
				if got, want := it.Seg(), p.SegOf(it.ID); got != want || it.MBR != want.MBR() {
					t.Fatalf("round %d shard %d: leaf %d carries %v (MBR %v), SegOf %v", round, i, it.ID, got, it.MBR, want)
				}
			}
		}
		if leaves != p.Len() {
			t.Fatalf("round %d: %d leaves, pool holds %d objects", round, leaves, p.Len())
		}
	}
}
