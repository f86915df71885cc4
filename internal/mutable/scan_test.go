package mutable

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// xfer stands in for a writer's transfer bracket around id.
func xfer(p *Pool, ids ...uint32) {
	for _, id := range ids {
		p.omu.Lock()
		p.beginXfer(id)
		p.endXfer()
	}
}

// settleRef is the rule's specification: of each transferred id the first
// sighting kept and any other dropped, everything else kept in order, then
// each transferred id not sighted at all that is held and matches appended
// once, ascending.
func settleRef(ans, xfers []uint32, restorable func(uint32) bool) []uint32 {
	var out []uint32
	for _, id := range ans {
		if !slices.Contains(xfers, id) || !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	ids := slices.Clone(xfers)
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		if !slices.Contains(ans, id) && restorable(id) {
			out = append(out, id)
		}
	}
	return out
}

// TestDedupRaced pins the rule for a read that raced a transfer directly:
// settle and settleNN read only the transfer counter, the ring and locate, so
// a quiescent pool with hand-made brackets (or hand-written slots) stands in
// for the writers that raced a walk.
func TestDedupRaced(t *testing.T) {
	p, ds := testPool(t, 64, 4)
	far := geom.Segment{A: geom.Point{X: 9000, Y: 9000}, B: geom.Point{X: 9010, Y: 9010}}
	const deleted, movedAway, missing = 12, 5, 33
	if _, existed, _, err := p.ApplyDelete(deleted); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if _, _, owned, err := p.ApplyMove(movedAway, far); err != nil || !owned {
		t.Fatalf("move away: owned=%v err=%v", owned, err)
	}
	q := &query{w: ds.Extent, exact: true}
	restorable := func(id uint32) bool { return int(id) < ds.Len() && id != deleted && id != movedAway }

	prefix := []uint32{7, 7, 3}
	// The walk's answer: 7 and 9 sighted more than once, 1 once, 33, 12 and
	// 5 not at all; 40 repeats but is never a transferred id, so nothing may
	// touch it.
	answer := []uint32{9, 40, 7, 20, 9, 40, 13, 7, 9, 1}

	type tc struct {
		name    string
		start   int                      // transfers completed before the walk began
		race    func(p *Pool, x0 uint64) // what happens while the walk runs
		raced   []uint32                 // the ids it transfers, for settleRef
		nShards int
		rewalk  bool
	}
	note := func(ids ...uint32) func(*Pool, uint64) {
		return func(p *Pool, _ uint64) { xfer(p, ids...) }
	}
	many := func(n int) []uint32 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = 1000 + uint32(i) // none of them in the answer, none held
		}
		return ids
	}
	cases := []tc{
		{name: "counter unchanged", start: 5, nShards: 4},
		{name: "single shard ignores the counter", start: 5, race: note(7, 9), nShards: 1},
		{name: "burst over the old scrub limit", race: note(append(many(17), 7, 9)...), raced: []uint32{7, 9}, nShards: 4},
		{name: "burst filling the ring", start: 3, race: note(append(many(xferRingSize-1), 9)...), raced: []uint32{9}, nShards: 4},
		{name: "lapped ring", start: 3, race: note(many(xferRingSize + 5)...), nShards: 4, rewalk: true},
		{name: "slot overwritten by a later lap", start: 3, nShards: 4, rewalk: true,
			race: func(p *Pool, x0 uint64) {
				xfer(p, 7, 9)
				i := x0>>1 + xferRingSize // the transfer that will reuse 7's slot has written it
				p.xferRing[i%xferRingSize].Store((i+1)<<32 | 1234)
			}},
		{name: "slot tag lags the counter", start: 3, nShards: 4, rewalk: true,
			race: func(p *Pool, _ uint64) {
				xfer(p, 7)
				p.xfers.Add(2) // a transfer the ring never heard of
			}},
		{name: "transfer still in flight", start: 3, race: func(p *Pool, _ uint64) {
			p.omu.Lock()
			p.beginXfer(9)
			p.omu.Unlock()
		}, raced: []uint32{9}, nShards: 4},
		{name: "one sighting stays where it is", race: note(1), raced: []uint32{1}, nShards: 2},
		{name: "missing id restored", race: note(missing), raced: []uint32{missing}, nShards: 2},
		{name: "restored id that no longer matches stays out", race: note(movedAway), raced: []uint32{movedAway}, nShards: 2},
		{name: "deleted id stays out", race: note(deleted, 7), raced: []uint32{deleted, 7}, nShards: 2},
	}
	for n := 1; n <= 16; n++ {
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
			name: fmt.Sprintf("scrub %d", n), start: xferRingSize - 3, // wraps the ring
			race: note(ids...), raced: ids, nShards: 2,
		})
	}

	for _, c := range cases {
		p.xfers.Store(0)
		for i := range p.xferRing {
			p.xferRing[i].Store(0)
		}
		xfer(p, many(c.start)...)
		x0 := p.xfers.Load()
		if c.race != nil {
			c.race(p, x0)
		}
		dst := append(slices.Clone(prefix), answer...)
		got, ok := p.settle(dst, nil, len(prefix), x0, c.nShards, q)
		if p.xfers.Load()&1 == 1 {
			p.xfers.Add(1) // close the bracket the case left open
		}
		if ok == c.rewalk {
			t.Errorf("%s: settled=%v, want re-walk=%v", c.name, ok, c.rewalk)
		}
		if c.rewalk {
			continue
		}
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%s: prefix rewritten to %v", c.name, got[:len(prefix)])
		}
		if want := settleRef(answer, c.raced, restorable); !slices.Equal(got[len(prefix):], want) {
			t.Errorf("%s: got %v, want %v", c.name, got[len(prefix):], want)
		}
	}

	// The same rule over a k-NN accumulator. Whether the settled answer is
	// complete depends on what the walk could have pruned: nothing while the
	// accumulator is short of k or the router's bound did the pruning,
	// everything past the k-th otherwise — so a second sighting that pushed a
	// neighbor out of a full accumulator costs a re-walk.
	pt := ds.Seg(7).A
	at := func(id uint32) rtree.Neighbor {
		seg := p.SegOf(id)
		return rtree.Neighbor{ID: id, Dist: seg.DistToPoint(pt), Seg: seg}
	}
	inf := math.Inf(1)
	for _, c := range []struct {
		name     string
		sighted  []uint32
		k        int
		bound    float64
		raced    []uint32
		want     []uint32 // as a set; nil: k neighbors led by 7
		complete bool
	}{
		{"quiet", []uint32{7, 9, 1}, 3, inf, nil, []uint32{7, 9, 1}, true},
		{"one sighting stays", []uint32{7, 9, 1}, 3, inf, []uint32{9}, []uint32{7, 9, 1}, true},
		{"double sighting, short of k", []uint32{7, 9, 7}, 8, inf, []uint32{7}, []uint32{7, 9}, true},
		{"double sighting pushed a neighbor out", []uint32{7, 9, 7}, 3, inf, []uint32{7}, nil, false},
		{"double sighting, the router's bound pruned", []uint32{7, 9, 7}, 3, 1e-9, []uint32{7}, []uint32{7, 9}, true},
		{"missing id restored", []uint32{9, 1}, 3, inf, []uint32{7}, []uint32{7, 9, 1}, true},
		{"nearest restored over a full answer", []uint32{9, 1}, 2, inf, []uint32{7}, nil, true},
		{"moved away stays out of a full answer", []uint32{9, 1}, 2, inf, []uint32{movedAway}, []uint32{9, 1}, true},
		{"deleted stays out", []uint32{9, 1}, 5, inf, []uint32{deleted}, []uint32{9, 1}, true},
	} {
		p.xfers.Store(0)
		x0 := p.xfers.Load()
		xfer(p, c.raced...)
		var sc rtree.NNScratch
		for _, id := range c.sighted {
			sc.KNNOffer(c.k, at(id))
		}
		pre := []rtree.Neighbor{{ID: 99, Dist: 99}}
		got, ok := p.settleNN(slices.Clone(pre), x0, 4, &sc, pt, c.k, c.bound)
		if ok != c.complete {
			t.Errorf("k-NN %s: settled=%v, want %v", c.name, ok, c.complete)
		}
		if got[0] != pre[0] {
			t.Errorf("k-NN %s: prefix rewritten to %v", c.name, got[0])
		}
		if !c.complete {
			continue // a re-walk discards the answer
		}
		got = got[1:]
		if !slices.IsSortedFunc(got, func(a, b rtree.Neighbor) int { return cmp.Compare(a.Dist, b.Dist) }) {
			t.Errorf("k-NN %s: %v not ascending", c.name, got)
		}
		var ids []uint32
		for _, nb := range got {
			ids = append(ids, nb.ID)
			if nb != at(nb.ID) {
				t.Errorf("k-NN %s: %v reported, held at %v", c.name, nb, at(nb.ID))
			}
		}
		if c.want == nil {
			if len(ids) != c.k || ids[0] != 7 {
				t.Errorf("k-NN %s: got %v, want %d neighbors led by 7", c.name, ids, c.k)
			}
		} else if !sameIDSet(ids, c.want) {
			t.Errorf("k-NN %s: got %v, want %v", c.name, ids, c.want)
		}
	}
}

// TestScanAgainstPingPongMover holds scans and k-NN to the contract table
// (DESIGN.md §15) against the worst case for it: objects bouncing between two
// shards while walks cover both and the compactor folds every 2 ms. An object
// that matches for a walk's whole duration must be in its answer exactly
// once: a walk that reads the destination before a move and the source after
// it sights the object in neither shard, one that reads them the other way
// round sights it in both, and either is a failure.
func TestScanAgainstPingPongMover(t *testing.T) {
	t.Run("static", scanPingPong)
}

// cutBetween bisects the line from a to b, whose keys fall in different
// shards, down to two points less than gap apart that still do.
func cutBetween(p *Pool, a, b geom.Point, gap float64) (geom.Point, geom.Point) {
	shardOf := func(pt geom.Point) int {
		return shard.RangeForKey(p.shardCuts, shard.WriteKey(p.q, geom.Rect{Min: pt, Max: pt}))
	}
	sa := shardOf(a)
	for math.Hypot(b.X-a.X, b.Y-a.Y) > gap {
		if m := (geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}); shardOf(m) == sa {
			a = m
		} else {
			b = m
		}
	}
	return a, b
}

func scanPingPong(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ds := randomDataset(rng, 800)
	// The age trigger is what folds the movers' shards: three ids never
	// fill an overlay to the size trigger.
	p, err := NewFromDataset(ds, 4, Config{CompactInterval: 2 * time.Millisecond, CompactMaxAge: time.Millisecond, compactThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Three movers. far bounces between the geometry of an object from the
	// first shard's base and of one from the last shard's. near bounces over
	// a cut between two specks either of which is the one nearest object of
	// the point between them. away is the nearest object of its query point
	// at home and far from it when away, so the point's nearest is away at
	// home or the nearest dataset object — never anything else.
	shards := p.shards
	segA := ds.Seg(shards[0].base.Load().tree.PackOrder()[0].ID)
	segB := ds.Seg(shards[len(shards)-1].base.Load().tree.PackOrder()[0].ID)
	speck := func(pt geom.Point) geom.Segment {
		return geom.Segment{A: geom.Point{X: pt.X - 5e-4, Y: pt.Y}, B: geom.Point{X: pt.X + 5e-4, Y: pt.Y}}
	}
	ca, cb := cutBetween(p, segA.MBR().Center(), segB.MBR().Center(), 0.05)
	nearPt := geom.Point{X: (ca.X + cb.X) / 2, Y: (ca.Y + cb.Y) / 2}
	awayPt := geom.Point{X: segA.A.X + 3, Y: segA.A.Y + 3}
	far, near, away := uint32(ds.Len()), uint32(ds.Len()+1), uint32(ds.Len()+2)
	movers := [3]struct {
		id   uint32
		a, b geom.Segment
	}{{far, segA, segB}, {near, speck(ca), speck(cb)}, {away, speck(awayPt), segB}}
	for _, m := range movers {
		var owners [2]*mshard
		for i, seg := range [2]geom.Segment{m.b, m.a} {
			if _, _, owned, err := p.ApplyMove(m.id, seg); err != nil || !owned {
				t.Fatalf("place %d: owned=%v err=%v", m.id, owned, err)
			}
			owners[i] = p.ids.owner(m.id)
		}
		if owners[0] == owners[1] {
			t.Fatalf("both resting places of %d landed in one shard", m.id)
		}
	}
	// What a dataset object can be to the two query points.
	nearest := func(pt geom.Point) rtree.Neighbor {
		best := rtree.Neighbor{Dist: math.Inf(1)}
		for id, s := range ds.Segments {
			if d := s.DistToPoint(pt); d < best.Dist {
				best = rtree.Neighbor{ID: uint32(id), Dist: d}
			}
		}
		return best
	}
	if d := min(nearest(nearPt).Dist, movers[2].a.DistToPoint(nearPt)); d <= 0.06 {
		t.Fatalf("an object lies %g from the cut point; the specks would not be its nearest", d)
	}
	other := nearest(awayPt)
	home := movers[2].a.DistToPoint(awayPt)
	if other.Dist <= home || movers[2].b.DistToPoint(awayPt) <= other.Dist {
		t.Fatalf("away mover: home %g, nearest dataset object %g", home, other.Dist)
	}
	full := geom.Rect{
		Min: geom.Point{X: ds.Extent.Min.X - 200, Y: ds.Extent.Min.Y - 200},
		Max: geom.Point{X: ds.Extent.Max.X + 200, Y: ds.Extent.Max.Y + 200},
	}
	size := p.Len()

	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && !t.Failed() {
				f()
				// The readers never block, and on two cores they would
				// leave the mover one scheduler tick in ten milliseconds.
				runtime.Gosched()
			}
		}()
	}
	run(func() {
		for _, back := range [2]bool{false, true} {
			for _, m := range movers {
				seg := m.b
				if back {
					seg = m.a
				}
				if _, _, _, err := p.ApplyMove(m.id, seg); err != nil {
					t.Error(err)
				}
			}
		}
	})

	var walks [3]atomic.Int64
	for r, scan := range [2]func(dst []uint32) []uint32{
		func(dst []uint32) []uint32 { return p.RangeAppend(dst, full) },
		func(dst []uint32) []uint32 { return filterRange(p, dst, full) },
	} {
		ids := make([]uint32, 0, 2048)
		seen := make([]bool, away+1)
		run(func() {
			ids = scan(ids[:0])
			walks[r].Add(1)
			clear(seen)
			for _, id := range ids {
				if seen[id] {
					t.Errorf("scan %d: answer contains id %d twice", r, id)
				}
				seen[id] = true
			}
			for _, m := range movers {
				if !seen[m.id] {
					t.Errorf("scan %d: missed id %d, which matched throughout", r, m.id)
				}
			}
			if len(ids) != size {
				t.Errorf("scan %d: %d ids, want %d", r, len(ids), size)
			}
		})
	}
	var nbs []rtree.Neighbor
	var sc shard.Scratch
	seen := make([]bool, away+1)
	run(func() {
		walks[2].Add(1)
		// k = pool size: every object exactly once.
		nbs, _ = p.KNearestAppend(nbs[:0], nearPt, size, &sc)
		clear(seen)
		for _, nb := range nbs {
			if seen[nb.ID] {
				t.Errorf("k-NN answer contains id %d twice", nb.ID)
			}
			seen[nb.ID] = true
		}
		if len(nbs) != size {
			t.Errorf("k-NN(k = pool size) returned %d neighbors, want %d", len(nbs), size)
		}
		// k = 1, the unique nearest at both resting places.
		if got := p.NearestWith(nearPt, &sc); !got.OK || got.ID != near {
			t.Errorf("nearest of the cut point = %+v, want id %d", got, near)
		}
		// k = 1, the nearest at home only: away at home, or whatever is
		// nearest without it.
		if got := p.NearestWith(awayPt, &sc); !got.OK || got.Dist != home && got.Dist != other.Dist ||
			(got.ID == away) != (got.Dist == home) {
			t.Errorf("nearest of the away point = %+v, want id %d at %g or another at %g", got, away, home, other.Dist)
		}
	})
	wg.Wait()
	t.Logf("%d RangeAppend and %d FilterRangeAppend scans, %d k-NN rounds; %d transfers; %d folds of the first shard",
		walks[0].Load(), walks[1].Load(), walks[2].Load(), p.xfers.Load()/2, shards[0].epoch.Load())
	if shards[0].epoch.Load() < 2 {
		t.Fatalf("the first shard folded %d times under the walks", shards[0].epoch.Load())
	}
}
