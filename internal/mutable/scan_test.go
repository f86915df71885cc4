package mutable

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
)

// scrubRef is the scrub's specification: drop every occurrence after the
// first of each transferred id, keep everything else in order.
func scrubRef(ans []uint32, xfer []uint32) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, id := range ans {
		if slices.Contains(xfer, id) {
			if seen[id] {
				continue
			}
			seen[id] = true
		}
		out = append(out, id)
	}
	return out
}

// sortRef is the fallback's specification: the appended region sorted with
// duplicates removed.
func sortRef(ans []uint32) []uint32 {
	out := slices.Clone(ans)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestDedupRaced pins the scan-dedup protocol directly: dedupRaced reads
// only the transfer counter and ring, so a zero Pool with noteXfer calls (or
// hand-written slots) stands in for the writers that raced a scan.
func TestDedupRaced(t *testing.T) {
	prefix := []uint32{7, 7, 3}
	// 7 and 9 repeat in the appended region; 40 repeats but is never a
	// transferred id, so only the sort path may touch it.
	answer := []uint32{9, 40, 7, 12, 9, 40, 5, 7, 9, 1}

	type tc struct {
		name    string
		start   uint64                   // transfers published before the scan began
		race    func(p *Pool, x0 uint64) // what happens while the scan walks
		nShards int
		want    []uint32
	}
	note := func(ids ...uint32) func(*Pool, uint64) {
		return func(p *Pool, _ uint64) {
			for _, id := range ids {
				p.noteXfer(id)
			}
		}
	}
	many := func(n int) []uint32 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = 1000 + uint32(i) // none of them in the answer
		}
		return ids
	}
	cases := []tc{
		{name: "counter unchanged", start: 5, race: note(), nShards: 4, want: answer},
		{name: "single shard ignores the counter", start: 5, race: note(7, 9), nShards: 1, want: answer},
		{name: "burst over maxXferScrub", race: note(many(maxXferScrub + 1)...), nShards: 4, want: sortRef(answer)},
		{name: "lapped ring", start: 3, race: note(many(xferRingSize + 5)...), nShards: 4, want: sortRef(answer)},
		{name: "slot overwritten by a later lap", start: 3, nShards: 4, want: sortRef(answer),
			race: func(p *Pool, x0 uint64) {
				p.noteXfer(7)
				p.noteXfer(9)
				x := x0 + 1 + xferRingSize
				p.xferRing[(x-1)%xferRingSize].Store(x<<32 | 1234)
			}},
		{name: "slot tag lags the counter", start: 3, nShards: 4, want: sortRef(answer),
			race: func(p *Pool, _ uint64) {
				p.noteXfer(7)
				p.xfers.Add(1) // counter bumped, slot write still in flight
			}},
	}
	for n := 1; n <= maxXferScrub; n++ {
		// n raced transfers: 7 and 9 among them while there is room, the
		// rest ids the answer does not hold; one id transfers twice.
		ids := many(n)
		ids[0] = 7
		if n >= 2 {
			ids[n-1] = 9
		}
		if n >= 3 {
			ids[1] = 7
		}
		cases = append(cases, tc{
			name: fmt.Sprintf("scrub %d", n), start: uint64(xferRingSize - 3), // wraps the ring
			race: note(ids...), nShards: 2, want: scrubRef(answer, ids),
		})
	}

	for _, c := range cases {
		p := &Pool{}
		for i := uint64(0); i < c.start; i++ {
			p.noteXfer(uint32(i))
		}
		x0 := p.xfers.Load()
		if c.race != nil {
			c.race(p, x0)
		}
		dst := append(slices.Clone(prefix), answer...)
		got := p.dedupRaced(dst, len(prefix), x0, c.nShards)
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%s: prefix rewritten to %v", c.name, got[:len(prefix)])
		}
		if !slices.Equal(got[len(prefix):], c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got[len(prefix):], c.want)
		}
	}

	nbs := []rtree.Neighbor{{ID: 1, Dist: 9}, {ID: 4, Dist: 1}, {ID: 2, Dist: 2}, {ID: 4, Dist: 3}, {ID: 2, Dist: 5}, {ID: 6, Dist: 8}}
	want := []rtree.Neighbor{{ID: 1, Dist: 9}, {ID: 4, Dist: 1}, {ID: 2, Dist: 2}, {ID: 6, Dist: 8}}
	if got := dedupNeighbors(nbs, 1); !slices.Equal(got, want) {
		t.Errorf("dedupNeighbors: got %v, want %v", got, want)
	}
}

// TestScanAgainstPingPongMover checks the scan contract the package claims —
// an id appears in one answer at most once — against the worst case for it:
// one object bouncing between two shards while scans cover both. It also
// measures what the package does NOT claim: a scan that reads the
// destination shard before a move and the source shard after it sees the
// object in neither, and dedupRaced can only drop ids, never restore one.
// That miss is logged, not failed, until the scan-miss fix lands.
func TestScanAgainstPingPongMover(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ds := randomDataset(rng, 800)
	p, err := NewFromDataset(ds, 4, Config{
		CompactInterval:  2 * time.Millisecond,
		compactThreshold: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Two resting places owned by different shards: the geometry of an
	// object from the first shard's base and of one from the last shard's.
	shards := p.topo.Load().shards
	posA := ds.Seg(shards[0].base.Load().tree.PackOrder()[0].ID)
	posB := ds.Seg(shards[len(shards)-1].base.Load().tree.PackOrder()[0].ID)
	sentinel := uint32(ds.Len())
	owner := func(seg geom.Segment) *mshard {
		if _, _, owned, err := p.ApplyMove(sentinel, seg); err != nil || !owned {
			t.Fatalf("move sentinel: owned=%v err=%v", owned, err)
		}
		return p.ids.owner(sentinel)
	}
	if owner(posB) == owner(posA) {
		t.Fatal("both sentinel positions landed in one shard")
	}
	full := geom.Rect{
		Min: geom.Point{X: ds.Extent.Min.X - 200, Y: ds.Extent.Min.Y - 200},
		Max: geom.Point{X: ds.Extent.Max.X + 200, Y: ds.Extent.Max.Y + 200},
	}

	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			for _, seg := range [2]geom.Segment{posB, posA} {
				if _, _, _, err := p.ApplyMove(sentinel, seg); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	scans := [2]func(dst []uint32) []uint32{
		func(dst []uint32) []uint32 { return p.RangeAppend(dst, full) },
		func(dst []uint32) []uint32 { return p.FilterRangeAppend(dst, full) },
	}
	var missed, total [2]int
	for r, scan := range scans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint32, 0, 2048)
			var nbs []rtree.Neighbor
			seen := make([]bool, sentinel+1)
			for time.Now().Before(deadline) {
				ids = scan(ids[:0])
				clear(seen)
				for _, id := range ids {
					if seen[id] {
						t.Errorf("scan %d: answer contains id %d twice", r, id)
						return
					}
					seen[id] = true
				}
				total[r]++
				if !seen[sentinel] {
					missed[r]++
				}
				nbs, _ = p.KNearestAppend(nbs[:0], posA.A, 8, nil)
				for i, nb := range nbs {
					for _, prev := range nbs[:i] {
						if prev.ID == nb.ID {
							t.Errorf("k-NN answer contains id %d twice", nb.ID)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("RangeAppend: missed=%d of %d scans; FilterRangeAppend: missed=%d of %d scans; %d transfers",
		missed[0], total[0], missed[1], total[1], p.xfers.Load())
}
