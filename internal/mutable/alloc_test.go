package mutable

import (
	"math/rand"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// The warm read path must not regress the repo's zero-alloc discipline:
// with an empty overlay a query is the identical packed-tree path and must
// allocate nothing; with a non-empty overlay the merge adds only map
// lookups, in-place compaction, and a pooled NN state — still nothing.

func warmQueries(p *Pool, ids []uint32, nbs []rtree.Neighbor, sc *shard.Scratch, w geom.Rect, pt geom.Point) {
	for i := 0; i < 32; i++ {
		ids = filterRange(p, ids[:0], w)
		ids = p.RangeAppend(ids[:0], w)
		ids = p.RangeAppend(ids[:0], p.Bounds())
		ids = p.PointAppend(ids[:0], pt, 2.0)
		p.NearestWith(pt, sc)
		nbs, _ = p.KNearestAppend(nbs[:0], pt, 8, sc)
	}
}

func measureQueries(t *testing.T, name string, p *Pool, want float64) {
	t.Helper()
	ids := make([]uint32, 0, 4096)
	nbs := make([]rtree.Neighbor, 0, 64)
	sc := &shard.Scratch{}
	w := geom.Rect{Min: geom.Point{X: 400, Y: 400}, Max: geom.Point{X: 900, Y: 900}}
	pt := geom.Point{X: 777, Y: 555}
	warmQueries(p, ids, nbs, sc, w, pt)
	all := p.Bounds()
	if got := testing.AllocsPerRun(100, func() {
		ids = filterRange(p, ids[:0], w)
		// The clean arm is the tree's kernel fused with a refinement
		// closure: w straddles MBRs (the closure runs), the whole extent
		// contains every base (one run per shard). Neither may allocate.
		ids = p.RangeAppend(ids[:0], w)
		ids = p.RangeAppend(ids[:0], all)
		ids = p.PointAppend(ids[:0], pt, 2.0)
		p.NearestWith(pt, sc)
		nbs, _ = p.KNearestAppend(nbs[:0], pt, 8, sc)
	}); got > want {
		t.Errorf("%s: %v allocs/op across the five query kinds, want <= %v", name, got, want)
	}
}

func TestFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := testPool(t, 1500, 4)
	measureQueries(t, "empty overlay", p, 0)
}

func TestOverlayPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := testPool(t, 1500, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		id := uint32(rng.Intn(p.Dataset().Len() + 50))
		switch rng.Intn(3) {
		case 0:
			p.ApplyMove(id, randomSeg(rng, p.Dataset().Extent))
		case 1:
			p.ApplyDelete(id)
		case 2:
			p.ApplyMove(id, randomSeg(rng, p.Dataset().Extent))
		}
	}
	pending := false
	for i := 0; i < p.NumShards(); i++ {
		pending = pending || p.Pending(i) > 0
	}
	if !pending {
		t.Fatal("overlay test has no pending overlay")
	}
	measureQueries(t, "live overlay", p, 0)

	// And with a frozen layer held open mid-compaction.
	var frozen []*frozenView
	for _, s := range p.shards {
		if f := s.freeze(); f != nil {
			frozen = append(frozen, f)
		}
	}
	if len(frozen) == 0 {
		t.Fatal("no shard froze")
	}
	// Fresh writes above the frozen layer keep all three layers non-trivial.
	for i := 0; i < 40; i++ {
		p.ApplyMove(uint32(rng.Intn(p.Dataset().Len())), randomSeg(rng, p.Dataset().Extent))
	}
	measureQueries(t, "frozen + live overlay", p, 0)
	for _, f := range frozen {
		for _, s := range p.shards {
			if s.lr.current().frozen == f {
				s.finishCompact(f)
			}
		}
	}
}

// TestWarmMoveZeroAlloc: the moving workload's write — an id already in its
// shard's live overlay moved again within that shard — allocates nothing,
// however the write is published to readers.
func TestWarmMoveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := testPool(t, 1500, 4)
	ds := p.Dataset()
	type vehicle struct {
		id  uint32
		seg geom.Segment
	}
	var fleet []vehicle
	for j := 0; j < 16; j++ {
		id := uint32(j * (ds.Len() / 16))
		fleet = append(fleet, vehicle{id, ds.Seg(id)}, vehicle{uint32(ds.Len() + j), ds.Seg(id + 1)})
	}
	nudge := func(i int) {
		v := fleet[i%len(fleet)]
		if (i/len(fleet))%2 == 1 {
			v.seg.A.X += 1e-3
			v.seg.B.X += 1e-3
		}
		if _, existed, owned, err := p.ApplyMove(v.id, v.seg); err != nil || !owned || i >= len(fleet) && !existed {
			t.Fatalf("move %d: existed=%v owned=%v err=%v", v.id, existed, owned, err)
		}
	}
	for i := 0; i < 4*len(fleet); i++ {
		nudge(i)
	}
	owners := make([]*mshard, len(fleet))
	for i, v := range fleet {
		owners[i] = p.ids.owner(v.id)
	}
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		nudge(i)
		i++
	}); got != 0 {
		t.Errorf("a warm same-shard move made %v allocs, want 0", got)
	}
	for j, v := range fleet {
		if p.ids.owner(v.id) != owners[j] {
			t.Fatalf("id %d changed shards: the moves are not same-shard", v.id)
		}
	}
}
