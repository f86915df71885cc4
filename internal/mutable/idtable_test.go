package mutable

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/shard"
)

// TestSegOfAgainstPingPongMover holds SegOf to its contract — for an id live
// throughout the call, a geometry the id held during the call — against the
// worst case for it: an inserted id and a moved dataset id bouncing between
// two shards while readers resolve them, with the compactor folding every
// 2 ms. Each mover only ever rests at posA or posB, so any other answer (the
// zero segment of a missed look-up, the dataset's stale geometry) is wrong.
// Beside them a never-written bystander sits in the base of a shard the
// movers keep folding, so every swap restamps its slot under the probes;
// it must always read its own dataset segment.
func TestSegOfAgainstPingPongMover(t *testing.T) {
	t.Run("static", segOfPingPong)
}

func segOfPingPong(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ds := randomDataset(rng, 800)
	// The age trigger is what folds the movers' shards: two ids never fill
	// an overlay to the size trigger.
	p, err := NewFromDataset(ds, 4, Config{CompactInterval: 2 * time.Millisecond, CompactMaxAge: time.Millisecond, compactThreshold: 32, Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Two resting places owned by different shards, and a dataset id whose
	// own geometry is neither.
	shards := p.shards
	first := shards[0].base.Load().tree.PackOrder()
	posA := ds.Seg(first[0].ID)
	posB := ds.Seg(shards[len(shards)-1].base.Load().tree.PackOrder()[0].ID)
	sentinel := uint32(ds.Len())
	moved := first[1].ID
	for _, it := range first[1:] {
		if seg := ds.Seg(it.ID); seg != posA && seg != posB {
			moved = it.ID
			break
		}
	}
	var bystander uint32
	for _, it := range first[1:] {
		if it.ID != moved && ds.Seg(it.ID) != posA {
			bystander = it.ID
			break
		}
	}
	ids := [2]uint32{sentinel, moved}
	for _, id := range ids {
		if _, _, owned, err := p.ApplyMove(id, posA); err != nil || !owned {
			t.Fatalf("place %d: owned=%v err=%v", id, owned, err)
		}
	}

	minProbes, dur := int64(500_000), 400*time.Millisecond
	if testing.Short() {
		minProbes, dur = 50_000, 100*time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var probes, wrong atomic.Int64
	done := func() bool { return probes.Load() >= minProbes && time.Now().After(deadline) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done() {
			for _, seg := range [2]geom.Segment{posB, posA} {
				for _, id := range ids {
					if _, _, _, err := p.ApplyMove(id, seg); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				for i := 0; i < 256; i++ {
					if i%3 == 2 {
						if got, want := p.SegOf(bystander), ds.Seg(bystander); got != want && wrong.Add(1) == 1 {
							t.Errorf("SegOf(%d) = %v, want its dataset segment %v", bystander, got, want)
						}
						continue
					}
					id := ids[i&1]
					if got := p.SegOf(id); got != posA && got != posB {
						if wrong.Add(1) == 1 {
							t.Errorf("SegOf(%d) = %v: neither %v nor %v", id, got, posA, posB)
						}
					}
				}
				probes.Add(256)
				// The readers never block, and on two cores they would
				// leave the mover one scheduler tick in ten milliseconds.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	t.Logf("%d wrong of %d probes (%d retried); %d transfers, %d folds of the bystander's shard",
		wrong.Load(), probes.Load(), p.m.segofRetries.Value(), p.xfers.Load(), shards[0].epoch.Load())
	if p.ids.written(bystander) || p.ids.owner(bystander) != shards[0] || shards[0].epoch.Load() < 2 {
		t.Fatalf("bystander %d: written %v, left shard 0 %v, %d folds under the probes",
			bystander, p.ids.written(bystander), p.ids.owner(bystander) != shards[0], shards[0].epoch.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d of %d SegOf answers were no position the id ever held", wrong.Load(), probes.Load())
	}
}

// TestReadsTakeNoPoolLock: with the pool-wide owner lock held, every read
// still completes — over a never-written id, a written dataset id, an
// inserted id, and shards with a non-empty overlay.
func TestReadsTakeNoPoolLock(t *testing.T) {
	p, ds := testPool(t, 600, 4)
	inserted, writtenID, untouched := uint32(ds.Len()+3), uint32(5), uint32(6)
	seg := geom.Segment{A: geom.Point{X: 300, Y: 300}, B: geom.Point{X: 340, Y: 320}}
	for _, id := range []uint32{inserted, writtenID} {
		if _, _, owned, err := p.ApplyMove(id, seg); err != nil || !owned {
			t.Fatalf("move %d: owned=%v err=%v", id, owned, err)
		}
	}

	p.omu.Lock()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for _, c := range []struct {
			id   uint32
			want geom.Segment
		}{{untouched, ds.Seg(untouched)}, {writtenID, seg}, {inserted, seg}} {
			if got := p.SegOf(c.id); got != c.want {
				t.Errorf("SegOf(%d) = %v, want %v", c.id, got, c.want)
			}
		}
		if ids := p.RangeAppend(nil, seg.MBR()); !containsID(ids, inserted) || !containsID(ids, writtenID) {
			t.Errorf("range over the written ids' position returned %v", ids)
		}
		if nbs, _ := p.KNearestAppend(nil, seg.A, 4, nil); len(nbs) != 4 {
			t.Errorf("k-NN returned %d neighbors, want 4", len(nbs))
		}
		if got := p.Len(); got != ds.Len()+1 {
			t.Errorf("Len = %d, want %d", got, ds.Len()+1)
		}
		if p.Bounds().IsEmpty() {
			t.Error("Bounds is empty")
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Error("a read waited on the pool-wide owner lock")
	}
	p.omu.Unlock()
	<-finished
}

// namedIDs walks every shard under its writer lock and returns the ids any
// overlay, tombstone set or frozen layer names.
func namedIDs(p *Pool) []uint32 {
	var out []uint32
	for _, s := range p.shards {
		s.mu.Lock()
		l := s.lr.current()
		for _, e := range l.segs.ents {
			out = append(out, e.id)
		}
		for id := range l.tombs {
			out = append(out, id)
		}
		if f := l.frozen; f != nil {
			for _, e := range f.segs.ents {
				out = append(out, e.id)
			}
			for id := range f.tombs {
				out = append(out, id)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// slotGap checks, in every shard's base, the invariant baseView.find leans
// on: each id the shard owns and packs unmasked, written or not, has a slot
// naming the shard and the id's position in the base's pack order. It
// describes the first violation, "" when there is none.
func slotGap(p *Pool) string {
	for i, s := range p.shards {
		s.mu.Lock()
		l := s.lr.current()
		msg := ""
		for pos, it := range l.base.tree.PackOrder() {
			if p.ids.owner(it.ID) != s || s.maskBase(l, it.ID) {
				continue
			}
			if at := s.pos(it.ID); at != uint32(pos) && msg == "" {
				msg = fmt.Sprintf("shard %d packs owned id %d unmasked at %d, its slot says %d", i, it.ID, pos, at)
			}
		}
		s.mu.Unlock()
		if msg != "" {
			return msg
		}
	}
	return ""
}

// ownerGap checks the layering invariant every write rests on (mshard): each
// id the table gives an owner is visible exactly once, in that shard — a
// live entry, an unmasked frozen entry or an unmasked leaf — no id without
// an owner is visible anywhere, and each shard's count is the ids it owns.
// It describes the first violation, "" when there is none.
func ownerGap(p *Pool) string {
	owners := map[uint32]*mshard{}
	for id := range p.ids.slots {
		if s := p.ids.owner(uint32(id)); s != nil {
			owners[uint32(id)] = s
		}
	}
	for i := range p.ids.side {
		st := &p.ids.side[i]
		st.mu.RLock()
		for id, w := range st.m {
			owners[id] = p.ids.shards[w>>32]
		}
		st.mu.RUnlock()
	}
	owns := map[*mshard]int64{}
	for _, s := range owners {
		owns[s]++
	}
	for i, s := range p.shards {
		if n := s.count.Load(); owns[s] != n {
			return fmt.Sprintf("shard %d owns %d ids, count %d", i, owns[s], n)
		}
	}
	copies := map[uint32]int{}
	for i, s := range p.shards {
		s.mu.Lock()
		l := s.lr.current()
		msg := ""
		visible := func(id uint32) {
			copies[id]++
			if owners[id] != s && msg == "" {
				msg = fmt.Sprintf("id %d is visible in shard %d, which does not own it", id, i)
			}
		}
		for _, e := range l.segs.ents {
			visible(e.id)
		}
		if f := l.frozen; f != nil {
			for _, e := range f.segs.ents {
				if !l.maskFrozen(e.id) {
					visible(e.id)
				}
			}
		}
		for _, it := range l.base.tree.PackOrder() {
			if !s.maskBase(l, it.ID) {
				visible(it.ID)
			}
		}
		s.mu.Unlock()
		if msg != "" {
			return msg
		}
	}
	for id := range owners {
		if copies[id] != 1 {
			return fmt.Sprintf("owned id %d is visible %d times", id, copies[id])
		}
	}
	return ""
}

// TestWrittenBitInvariant checks the invariant idTable states — no layer of
// any shard names an id whose written bit is clear — after a seeded mix of
// inserts, moves, deletes, moves back to the dataset's own segment, forced
// compactions and held-open freezes, and that the shortcut
// the read paths take on it changes no answer: with the overlays pending and
// after they are folded, every query kind equals the flat ledger of the
// writes (agreesWithFresh) and SegOf returns the ledger's geometry for every
// live id. Each id a base packs unmasked, owned by that shard, has a slot
// naming the shard and its pack position (slotGap), which is all a look-up
// in the base reads, and each owned id is visible exactly once, in its owner
// (ownerGap), which is all a write reads.
func TestWrittenBitInvariant(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 120+rng.Intn(200))
		p, err := NewFromDataset(ds, 1+rng.Intn(4), Config{CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		model := make(map[uint32]geom.Segment, ds.Len())
		for id := 0; id < ds.Len(); id++ {
			model[uint32(id)] = ds.Seg(uint32(id))
		}
		touched := map[uint32]bool{}
		check := func(tag string) bool {
			for _, id := range namedIDs(p) {
				if !p.ids.written(id) {
					t.Errorf("seed %d %s: a layer names id %d, whose written bit is clear", seed, tag, id)
					return false
				}
			}
			for _, gap := range []func(*Pool) string{slotGap, ownerGap} {
				if msg := gap(p); msg != "" {
					t.Errorf("seed %d %s: %s", seed, tag, msg)
					return false
				}
			}
			for id := 0; id < ds.Len(); id++ {
				if got := p.ids.written(uint32(id)); got != touched[uint32(id)] {
					t.Errorf("seed %d %s: written(%d) = %v, want %v", seed, tag, id, got, !got)
					return false
				}
			}
			if p.Len() != len(model) {
				t.Errorf("seed %d %s: Len = %d, ledger %d", seed, tag, p.Len(), len(model))
				return false
			}
			for id, seg := range model {
				if got := p.SegOf(id); got != seg {
					t.Errorf("seed %d %s: SegOf(%d) = %v, ledger %v", seed, tag, id, got, seg)
					return false
				}
			}
			return agreesWithFresh(t, seed, rng, p, model, ds)
		}

		maxID := ds.Len() + 40
		for op := 0; op < 400; op++ {
			id := uint32(rng.Intn(maxID))
			switch rng.Intn(6) {
			case 0, 1: // move or insert
				seg := randomSeg(rng, ds.Extent)
				if _, _, owned, err := p.ApplyMove(id, seg); err != nil || !owned {
					t.Fatalf("seed %d: move(%d): owned=%v err=%v", seed, id, owned, err)
				}
				model[id], touched[id] = seg, true
			case 2: // delete
				_, existed, _, err := p.ApplyDelete(id)
				if _, had := model[id]; err != nil || existed != had {
					t.Fatalf("seed %d: delete(%d): existed=%v err=%v, ledger had=%v", seed, id, existed, err, had)
				}
				// Deleting an id the pool does not hold writes nothing.
				touched[id] = touched[id] || existed
				delete(model, id)
			case 3: // move a dataset id back to its own segment
				id %= uint32(ds.Len())
				if _, _, owned, err := p.ApplyMove(id, ds.Seg(id)); err != nil || !owned {
					t.Fatalf("seed %d: move back(%d): owned=%v err=%v", seed, id, owned, err)
				}
				model[id], touched[id] = ds.Seg(id), true
			case 4: // compaction, sometimes held open across a check
				s := p.shards[rng.Intn(p.NumShards())]
				if f := s.freeze(); f != nil {
					if rng.Intn(2) == 0 && !check("frozen") {
						return
					}
					s.finishCompact(f)
				}
			case 5:
				if op%3 == 0 && !check("overlay") {
					return
				}
			}
		}
		if !check("final overlay") {
			return
		}
		p.ForceCompact()
		for i := 0; i < p.NumShards(); i++ {
			if p.Pending(i) != 0 {
				t.Fatalf("seed %d: shard %d pending %d after ForceCompact", seed, i, p.Pending(i))
			}
		}
		if !check("folded") {
			return
		}
	}
}

// liveHeap returns the live heap after two collections (the second frees
// what the first one's finalizers and sweeps released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIDTableBoundedByLiveIDs: the table's memory follows the live ids, not
// the largest id a client sent.
func TestIDTableBoundedByLiveIDs(t *testing.T) {
	p, _ := testPool(t, 400, 4)
	seg := geom.Segment{A: geom.Point{X: 500, Y: 500}, B: geom.Point{X: 540, Y: 520}}
	far := []uint32{1 << 31}
	for id := uint32(0xFFFFFFF0); id != 0; id++ {
		far = append(far, id)
	}
	n0, h0 := p.Len(), liveHeap()
	for _, id := range far {
		if _, _, owned, err := p.ApplyMove(id, seg); err != nil || !owned {
			t.Fatalf("move(%#x): owned=%v err=%v", id, owned, err)
		}
		if got := p.SegOf(id); got != seg {
			t.Fatalf("SegOf(%#x) = %v, want %v", id, got, seg)
		}
	}
	if got := p.Len(); got != n0+len(far) {
		t.Fatalf("Len = %d with %d far ids live, want %d", got, len(far), n0+len(far))
	}
	for _, id := range far {
		if _, existed, _, err := p.ApplyDelete(id); err != nil || !existed {
			t.Fatalf("delete(%#x): existed=%v err=%v", id, existed, err)
		}
	}
	p.ForceCompact()
	if got := p.Len(); got != n0 {
		t.Fatalf("Len = %d after deleting the far ids, want %d", got, n0)
	}
	if grew := liveHeap() - h0; grew >= 1<<20 {
		t.Fatalf("live heap grew %d bytes over %d far ids that came and went", grew, len(far))
	}
	runtime.KeepAlive(p)
}

// TestPoolHeapBudget: an updatable pool with empty overlays holds little
// more than the frozen engine over the same map — the packed bases plus the
// id table.
func TestPoolHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the PA map")
	}
	ds := dataset.PA()
	h0 := liveHeap()
	frozen, err := shard.New(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	h1 := liveHeap()
	p, err := NewFromDataset(ds, 4, Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h2 := liveHeap()
	fr, mu := float64(h1-h0)/(1<<20), float64(h2-h1)/(1<<20)
	t.Logf("frozen engine %.2f MB, updatable pool %.2f MB (%.2fx)", fr, mu, mu/fr)
	if mu > 1.7*fr {
		t.Errorf("updatable pool adds %.2f MB, over 1.7x the frozen engine's %.2f MB", mu, fr)
	}
	runtime.KeepAlive(frozen)
	runtime.KeepAlive(ds)
}

// TestIDTable pins the table's own arithmetic: the pre-set tail bits, the
// slot word's owner index and full 32-bit position, the dense/side
// boundary, and a stripe map released once it empties.
func TestIDTable(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 100} {
		tb := newIDTable(n)
		for id := uint32(0); id < uint32(n)+70; id++ {
			if got, want := tb.written(id), int(id) >= n; got != want {
				t.Fatalf("n=%d: fresh written(%d) = %v, want %v", n, id, got, want)
			}
		}
		s := &mshard{idx: 1}
		tb.shards = []*mshard{nil, {}, s}
		ids := []uint32{0, uint32(n), uint32(n) + sideStripes, 1 << 31, ^uint32(0)}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		for i, id := range ids {
			tb.markWritten(id)
			tb.set(id, s, math.MaxUint32-i)
		}
		for i, id := range ids {
			if pos := uint32(tb.word(id)); !tb.written(id) || tb.owner(id) != s || pos != math.MaxUint32-uint32(i) {
				t.Fatalf("n=%d: id %d: written=%v owner set=%v pos %d", n, id, tb.written(id), tb.owner(id) == s, pos)
			}
			tb.setOwner(id, nil)
			if tb.owner(id) != nil {
				t.Fatalf("n=%d: id %d still owned after setOwner(nil)", n, id)
			}
		}
		if n > 1 && tb.written(1) {
			t.Fatalf("n=%d: marking id 0 set id 1's bit", n)
		}
		for i := range tb.side {
			if tb.side[i].m != nil {
				t.Fatalf("n=%d: stripe %d keeps its emptied map", n, i)
			}
		}
	}
}
