package mutable

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// baseView is one immutable generation of a shard's packed base. Readers
// load it through an atomic pointer; the compactor publishes a fresh one and
// never mutates a published view, so the empty-overlay fast path needs no
// lock at all. The base's items are tree.PackOrder().
type baseView struct {
	tree *rtree.Tree
	// member is the base's membership set over dataset ids, one bit each.
	// A packed inserted id is always a key of over, so it needs none.
	// Dataset.Len()/8 bytes per base whatever the base holds: 17 KB on PA,
	// against the 0.55 MB hash set per shard it replaces.
	member []uint64
	// over carries geometry for base ids whose segment differs from the
	// base dataset — inserted ids and moved originals folded by earlier
	// compactions. Ids absent here resolve through Dataset.Seg.
	over   map[uint32]geom.Segment
	bounds geom.Rect
}

// contains reports whether id is packed into this base.
func (bv *baseView) contains(id uint32) bool {
	if w := int(id >> 6); w < len(bv.member) {
		return bv.member[w]&(1<<(id&63)) != 0
	}
	_, ok := bv.over[id]
	return ok
}

// frozenView is the overlay detached at the start of a compaction: the
// compactor folds it into the next base while fresh writes keep landing in
// the live overlay above it. It is immutable once published.
type frozenView struct {
	segs  overlay
	tombs map[uint32]struct{}
}

func (f *frozenView) size() int { return f.segs.len() + len(f.tombs) }

// newBaseView bulk-loads items into one packed base generation (the tree
// copies them) over a dataset of n ids; over carries the geometry of the ids
// among items whose segment differs from the base dataset, every id >= n
// among them.
func newBaseView(n int, items []rtree.Item, over map[uint32]geom.Segment) (*baseView, error) {
	tree, err := rtree.Build(items, rtree.Config{}, ops.Null{})
	if err != nil {
		return nil, err
	}
	member := make([]uint64, (n+63)/64)
	for _, it := range items {
		if w := int(it.ID >> 6); w < len(member) {
			member[w] |= 1 << (it.ID & 63)
		}
	}
	return &baseView{tree: tree, member: member, over: over, bounds: tree.Bounds()}, nil
}

// mshard is one updatable shard: packed base + live overlay + optional
// frozen overlay mid-compaction. Each overlay layer is one overlay value
// (its written segments) and a tombstone set.
//
// Layering invariant: a live id resolves in exactly one layer — live
// overlay (segs), else frozen overlay, else base — and the mask sets (segs
// ids and tombs at each layer) hide every stale lower copy. segs and tombs
// are disjoint at each layer.
type mshard struct {
	pl *Pool
	// idx is the shard's position in Pool.shards, which is also its lock
	// order: a write that locks two shards takes the lower idx first.
	idx int
	// rg is the cluster range the shard sits in.
	rg int

	epoch atomic.Uint64
	// version counts every visible-state change: it advances (under the
	// write lock, before the write's ack) on every overlay mutation and on
	// every compaction epoch swap. The result cache (internal/qcache) keys
	// entry validity on it: equal version ⇒ identical visible contents.
	// Epoch alone would not do — an insert+delete pair can return the
	// overlay to empty with the epoch unchanged, and a result computed
	// mid-pair must not be served afterwards.
	version atomic.Uint64
	base    atomic.Pointer[baseView]
	// pend is the total overlay size (live + frozen). Zero is the
	// lock-free fast-path ticket: it only transitions 0→nonzero under
	// the write lock, and back to zero when a compaction folds the last
	// overlay entry.
	pend atomic.Int64
	// pendSince is the unix-nano arrival of the oldest unfolded write
	// (approximate across a compaction swap); 0 when the overlay is
	// empty. Staleness gauges derive from it.
	pendSince atomic.Int64
	// count is the number of live objects this shard owns — the per-range
	// item count live registration summaries report. Mutated only under
	// the pool's omu (at the same sites the id table's owners change), read
	// lock-free.
	count atomic.Int64

	mu     sync.RWMutex
	segs   overlay
	tombs  map[uint32]struct{}
	frozen *frozenView
}

// newMShard builds shard idx of cluster range rg over items (copied).
func newMShard(p *Pool, idx, rg int, items []rtree.Item) (*mshard, error) {
	bv, err := newBaseView(p.ds.Len(), items, nil)
	if err != nil {
		return nil, fmt.Errorf("mutable: shard %d base: %w", idx, err)
	}
	s := &mshard{pl: p, idx: idx, rg: rg, segs: newOverlay(), tombs: map[uint32]struct{}{}}
	s.base.Store(bv)
	return s, nil
}

// ---- overlay mutation (s.mu held in write mode) ----

// beneathVisibleLocked reports whether id is visible in the layers below
// the live overlay (frozen, then base).
func (s *mshard) beneathVisibleLocked(id uint32) bool {
	if f := s.frozen; f != nil {
		if f.segs.has(id) {
			return true
		}
		if _, ok := f.tombs[id]; ok {
			return false
		}
	}
	return s.base.Load().contains(id)
}

// upsertLocked installs seg as id's live geometry and reports whether the
// shard previously held a visible id.
func (s *mshard) upsertLocked(id uint32, seg geom.Segment) bool {
	s.pl.ids.markWritten(id)
	existed := s.segs.put(id, seg)
	if _, dead := s.tombs[id]; dead {
		delete(s.tombs, id)
	} else if !existed {
		existed = s.beneathVisibleLocked(id)
	}
	s.pendChangedLocked()
	return existed
}

// removeLocked deletes id from the shard and reports whether it was
// visible. Idempotent: deleting an absent id is a no-op returning false.
func (s *mshard) removeLocked(id uint32) bool {
	s.pl.ids.markWritten(id)
	existed := s.segs.del(id)
	if _, dead := s.tombs[id]; !dead && s.beneathVisibleLocked(id) {
		s.tombs[id] = struct{}{}
		existed = true
	}
	s.pendChangedLocked()
	return existed
}

func (s *mshard) pendChangedLocked() {
	s.version.Add(1)
	n := s.segs.len() + len(s.tombs)
	if f := s.frozen; f != nil {
		n += f.size()
	}
	s.pend.Store(int64(n))
	if n == 0 {
		s.pendSince.Store(0)
	} else if s.pendSince.Load() == 0 {
		s.pendSince.Store(time.Now().UnixNano())
	}
}

// ---- read-side masks and geometry (s.mu held, read mode suffices) ----

// maskBase reports whether a base entry for id is stale: some overlay layer
// above the base owns a newer version or a tombstone. No layer names a
// never-written id (idTable).
func (s *mshard) maskBase(id uint32) bool {
	if !s.pl.ids.written(id) {
		return false
	}
	if s.segs.has(id) {
		return true
	}
	if _, ok := s.tombs[id]; ok {
		return true
	}
	if f := s.frozen; f != nil {
		if f.segs.has(id) {
			return true
		}
		if _, ok := f.tombs[id]; ok {
			return true
		}
	}
	return false
}

// maskFrozen reports whether a frozen-overlay entry for id is shadowed by
// the live overlay.
func (s *mshard) maskFrozen(id uint32) bool {
	if s.segs.has(id) {
		return true
	}
	_, ok := s.tombs[id]
	return ok
}

// segAnyLocked resolves the live geometry of an id visible in this shard.
func (s *mshard) segAnyLocked(bv *baseView, id uint32) geom.Segment {
	if !s.pl.ids.written(id) {
		return s.pl.ds.Seg(id)
	}
	seg, _ := s.findLocked(bv, id)
	return seg
}

// findLocked is the one layered look-up: id's geometry when id is visible in
// this shard, the layers read newest first, a tombstone ending the search.
func (s *mshard) findLocked(bv *baseView, id uint32) (geom.Segment, bool) {
	if seg, ok := s.segs.get(id); ok {
		return seg, true
	}
	if _, dead := s.tombs[id]; dead {
		return geom.Segment{}, false
	}
	if f := s.frozen; f != nil {
		if seg, ok := f.segs.get(id); ok {
			return seg, true
		}
		if _, dead := f.tombs[id]; dead {
			return geom.Segment{}, false
		}
	}
	return bv.find(s.pl, id)
}

// find resolves id's geometry in this base: false when id is not packed
// into it.
func (bv *baseView) find(p *Pool, id uint32) (geom.Segment, bool) {
	if seg, ok := bv.over[id]; ok {
		return seg, true
	}
	if int(id) < p.ds.Len() && bv.contains(id) {
		return p.ds.Seg(id), true
	}
	return geom.Segment{}, false
}

// find is findLocked for a caller holding no lock. A shard with an empty
// overlay answers from its base without one, unless the caller insists:
// SegOf's retries do, because taking the lock is what waits out a writer
// still installing the id.
func (s *mshard) find(id uint32, locked bool) (geom.Segment, bool) {
	if !locked && s.pend.Load() == 0 {
		return s.base.Load().find(s.pl, id)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.findLocked(s.base.Load(), id)
}

// boundsNow returns the shard's current extent: base bounds plus any
// overlay geometry.
func (s *mshard) boundsNow() geom.Rect {
	if s.pend.Load() == 0 {
		return s.base.Load().bounds
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := s.base.Load().bounds
	if f := s.frozen; f != nil {
		for _, e := range f.segs.ents {
			out = out.Union(e.mbr)
		}
	}
	for _, e := range s.segs.ents {
		out = out.Union(e.mbr)
	}
	return out
}

// ---- pool-level write application ----

func checkWriteSeg(seg geom.Segment) error {
	for _, v := range [4]float64{seg.A.X, seg.A.Y, seg.B.X, seg.B.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mutable: non-finite segment coordinate")
		}
	}
	return nil
}

// ApplyMove upserts id at seg: an object's first position and every later
// one. It returns the owning shard's base epoch, whether a previous version
// of id was visible, and whether this pool owns the object's position (a
// pool that does not own it instead drops any stale local copy and acks
// owned=false, which is exactly what a replica must do when an object moves
// off its ranges). A malformed segment is the only error.
//
// The pool meters what the write did, once ownership is decided: an owned
// write counts in mutable_inserts_total when it installed an id with no
// visible copy and in mutable_moves_total when it replaced one; a foreign
// write counts only in mutable_not_owned_total.
func (p *Pool) ApplyMove(id uint32, seg geom.Segment) (epoch uint64, existed, owned bool, err error) {
	if err := checkWriteSeg(seg); err != nil {
		return 0, false, false, err
	}
	key := shard.WriteKey(p.q, seg.MBR())

	// Ownership resolves under omu, the only place an id's owner changes.
	p.omu.Lock()
	target := p.shards[shard.RangeForKey(p.shardCuts, key)]
	old := p.ids.owner(id)

	if target.rg != shard.RangeForKey(p.cuts, key) {
		// The object's new position is in a cluster range this pool does
		// not hold: all it must do is forget its stale copy.
		p.m.notOwned.Inc()
		if old == nil {
			p.omu.Unlock()
			return 0, false, false, nil
		}
		epoch, existed = p.evict(id, old)
		return epoch, existed, false, nil
	}

	if old != nil && old != target {
		// Cross-shard move: drop the old copy and install the new one
		// under both locks, acquired in ascending shard order, inside one
		// transfer bracket. The new owner is published only once its lock
		// is held, so a SegOf that reads it waits for the copy instead of
		// missing it.
		a, b := old, target
		if a.idx > b.idx {
			a, b = b, a
		}
		a.mu.Lock()
		b.mu.Lock()
		p.ids.setOwner(id, target)
		old.count.Add(-1)
		target.count.Add(1)
		p.beginXfer(id)
		existed = old.removeLocked(id)
		if target.upsertLocked(id, seg) {
			existed = true
		}
		p.wrote(old, target)
		epoch = target.epoch.Load()
		old.mu.Unlock()
		target.mu.Unlock()
		p.endXfer()
		p.m.upserted(existed)
		return epoch, existed, true, nil
	}

	target.mu.Lock()
	if old == nil {
		p.ids.setOwner(id, target)
		target.count.Add(1)
	}
	p.omu.Unlock()
	existed = target.upsertLocked(id, seg)
	p.wrote(target, target)
	epoch = target.epoch.Load()
	target.mu.Unlock()
	p.m.upserted(existed)
	return epoch, existed, true, nil
}

// ApplyDelete removes id wherever it lives. The object's position is not on
// the wire, so every replica applies deletes locally; owned reports whether
// this pool actually held the object. Idempotent: deleting an unknown id
// succeeds with existed=false.
func (p *Pool) ApplyDelete(id uint32) (epoch uint64, existed, owned bool, err error) {
	p.m.deletes.Inc()
	p.omu.Lock()
	sh := p.ids.owner(id)
	if sh == nil {
		p.omu.Unlock()
		return 0, false, false, nil
	}
	epoch, existed = p.evict(id, sh)
	return epoch, existed, true, nil
}

// evict removes id from its owning shard sh, as a transfer: the id may
// re-enter through another shard while a walk that saw it here is still
// running. It is called with omu held and releases it.
func (p *Pool) evict(id uint32, sh *mshard) (epoch uint64, existed bool) {
	p.ids.setOwner(id, nil)
	sh.count.Add(-1)
	sh.mu.Lock()
	p.beginXfer(id)
	existed = sh.removeLocked(id)
	p.wrote(sh, sh)
	epoch = sh.epoch.Load()
	sh.mu.Unlock()
	p.endXfer()
	return epoch, existed
}

// wrote counts one applied write against the cluster ranges of the shards it
// changed, once per range (Pool.writes), before the write is acknowledged.
func (p *Pool) wrote(a, b *mshard) {
	p.writes[a.rg].Add(1)
	if b.rg != a.rg {
		p.writes[b.rg].Add(1)
	}
}

// beginXfer opens the bracket around one cross-shard transfer of id: the
// ring slot first, then the counter goes odd — before the first shard
// mutation, so a walk that can observe any of the transfer observes the
// counter moved and finds the id in the ring (read.go). The caller holds omu
// and the locks of the shards it will mutate.
func (p *Pool) beginXfer(id uint32) {
	i := p.xfers.Load() >> 1
	p.xferRing[i%xferRingSize].Store((i+1)<<32 | uint64(id))
	p.xfers.Add(1)
}

// endXfer closes the bracket, after the last shard unlock, and releases omu,
// which the writer held throughout: transfers are totally ordered, and at
// most one is in flight.
func (p *Pool) endXfer() {
	p.xfers.Add(1)
	p.omu.Unlock()
}

// ---- metrics ----

type poolMetrics struct {
	inserts     *obs.Counter
	deletes     *obs.Counter
	moves       *obs.Counter
	notOwned    *obs.Counter
	compactions *obs.Counter
	compactErrs *obs.Counter
	// segofRetries counts SegOf look-ups that raced a transfer of their id.
	segofRetries *obs.Counter

	// Per-shard gauges, indexed like Pool.shards; nil without a hub.
	epochG []*obs.Gauge
	pendG  []*obs.Gauge
	staleG []*obs.Gauge
}

// upserted counts one applied, owned upsert by what it did: a first
// placement of the id, or a replacement of a visible copy.
func (m *poolMetrics) upserted(existed bool) {
	if existed {
		m.moves.Inc()
	} else {
		m.inserts.Inc()
	}
}

func newPoolMetrics(h *obs.Hub, nShards int) *poolMetrics {
	m := &poolMetrics{}
	if h == nil || h.Reg == nil {
		return m // nil handles are no-ops
	}
	m.inserts = h.Reg.Counter("mutable_inserts_total")
	m.deletes = h.Reg.Counter("mutable_deletes_total")
	m.moves = h.Reg.Counter("mutable_moves_total")
	m.notOwned = h.Reg.Counter("mutable_not_owned_total")
	m.compactions = h.Reg.Counter("mutable_compactions_total")
	m.compactErrs = h.Reg.Counter("mutable_compact_errors_total")
	m.segofRetries = h.Reg.Counter("mutable_segof_retries_total")
	for i := 0; i < nShards; i++ {
		lbl := fmt.Sprintf("%d", i)
		m.epochG = append(m.epochG, h.Reg.Gauge(obs.Name("mutable_epoch", "shard", lbl)))
		m.pendG = append(m.pendG, h.Reg.Gauge(obs.Name("mutable_pending", "shard", lbl)))
		m.staleG = append(m.staleG, h.Reg.Gauge(obs.Name("mutable_staleness_seconds", "shard", lbl)))
	}
	return m
}
