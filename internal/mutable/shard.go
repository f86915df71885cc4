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
// load it through an atomic pointer or the copy of the read state they
// entered; the compactor publishes a fresh one and never mutates a
// published view, so the empty-overlay fast path needs nothing but the
// load. The base's items are tree.PackOrder(), each leaf carrying its
// segment. It keeps no membership set and no geometry beside its leaves:
// whether an id is visible is the id table's owner, and where the base packs
// it the owner's slot (Pool.ids).
type baseView struct {
	tree   *rtree.Tree
	bounds geom.Rect
}

// frozenView is the overlay detached at the start of a compaction: the
// compactor folds it into the next base while fresh writes keep landing in
// the live overlay above it. It is immutable once published, and both
// copies of the shard's read state share it.
type frozenView struct {
	segs  overlay
	tombs map[uint32]struct{}
}

func (f *frozenView) size() int { return f.segs.len() + len(f.tombs) }

// newBaseView bulk-loads items into one packed base generation (the tree
// copies them).
func newBaseView(items []rtree.Item) (*baseView, error) {
	tree, err := rtree.Build(items, rtree.Config{}, ops.Null{})
	if err != nil {
		return nil, err
	}
	return &baseView{tree: tree, bounds: tree.Bounds()}, nil
}

// mshard is one updatable shard: packed base + live overlay + optional
// frozen overlay mid-compaction. Each overlay layer is one overlay value
// (its written segments) and a tombstone set. The three are its read state,
// held twice as a left-right pair (leftright.go): readers never lock, and
// writers, serialized by mu, change both copies.
//
// Layering invariant: an id the pool's table (Pool.ids) names this shard
// as owner of is visible here exactly once — live overlay (segs), else
// frozen overlay, else base — the mask sets (segs ids and tombs at each
// layer) hiding every stale lower copy; an id it does not own is visible in
// no layer, and count is the number of ids it owns. segs and tombs are
// disjoint at each layer. Writes rest on it: a write found a visible copy
// iff the id had an owner, so none reads a layer to tell.
type mshard struct {
	pl *Pool
	// idx is the shard's position in Pool.shards, which is also its lock
	// order: a write that locks two shards takes the lower idx first.
	idx int
	// rg is the cluster range the shard sits in.
	rg int

	epoch atomic.Uint64
	// version counts every visible-state change: it advances (under mu,
	// after the change is published and before the write's ack) on every
	// overlay mutation and on every compaction epoch swap. The result cache
	// (internal/qcache) keys entry validity on it: equal version ⇒ identical
	// visible contents. Epoch alone would not do — an insert+delete pair
	// can return the overlay to empty with the epoch unchanged, and a
	// result computed mid-pair must not be served afterwards.
	version atomic.Uint64
	// base is the newest packed base: what the lock-free fast path reads
	// (pend == 0, when both copies hold only it) and what a compaction
	// folds.
	base atomic.Pointer[baseView]
	// pend is the total overlay size (live + frozen). Zero is the
	// lock-free fast-path ticket: it only transitions 0→nonzero once a
	// write is published, and back to zero when a compaction folds the
	// last overlay entry.
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

	// mu serializes the shard's writers: writes, a compaction's freeze and
	// its swap. No read takes it, save locate's bounded retry, which waits
	// out a writer still installing an id.
	mu sync.Mutex
	lr leftRight
}

// newMShard builds shard idx of cluster range rg over items (copied).
func newMShard(p *Pool, idx, rg int, items []rtree.Item) (*mshard, error) {
	bv, err := newBaseView(items)
	if err != nil {
		return nil, fmt.Errorf("mutable: shard %d base: %w", idx, err)
	}
	s := &mshard{pl: p, idx: idx, rg: rg}
	s.lr.copies = [2]layers{newLayers(bv), newLayers(bv)}
	s.base.Store(bv)
	return s, nil
}

// ---- overlay mutation (s.mu held) ----

// upsert installs seg as id's live geometry.
func (s *mshard) upsert(id uint32, seg geom.Segment) {
	s.pl.ids.markWritten(id)
	s.lr.publish(change{kind: changeUpsert, id: id, seg: seg})
	s.pendChanged()
}

// remove deletes the visible id from the shard. It always tombstones: a
// stale base or frozen copy may be masked only by the live entry it drops
// (the id left, came back and leaves again), and a tombstone over a layer
// that packs nothing costs one pending entry until the next fold drops it.
func (s *mshard) remove(id uint32) {
	s.pl.ids.markWritten(id)
	s.lr.publish(change{kind: changeRemove, id: id})
	s.pendChanged()
}

// pendChanged follows a publish: the pending count first, then the version.
// A reader that sees the new version therefore sees a pending count that
// sends it to the published copy, never to a base the write is not in.
func (s *mshard) pendChanged() {
	n := s.lr.current().size()
	s.pend.Store(int64(n))
	if n == 0 {
		s.pendSince.Store(0)
	} else if s.pendSince.Load() == 0 {
		s.pendSince.Store(time.Now().UnixNano())
	}
	s.version.Add(1)
}

// ---- read side (a copy entered through s.lr) ----

// maskBase reports whether a base entry for id is stale in l: some overlay
// layer above the base owns a newer version or a tombstone. No layer names
// a never-written id (idTable).
func (s *mshard) maskBase(l *layers, id uint32) bool {
	if !s.pl.ids.written(id) {
		return false
	}
	if l.segs.has(id) {
		return true
	}
	if _, ok := l.tombs[id]; ok {
		return true
	}
	if f := l.frozen; f != nil {
		if f.segs.has(id) {
			return true
		}
		if _, ok := f.tombs[id]; ok {
			return true
		}
	}
	return false
}

// find reads id's geometry from the leaf at position pos, its slot: false
// when that leaf holds another id. The caller's layers mask a stale copy.
func (bv *baseView) find(id, pos uint32) (geom.Segment, bool) {
	if lv := bv.tree.PackOrder(); int(pos) < len(lv) && lv[pos].ID == id {
		return lv[pos].Seg(), true
	}
	return geom.Segment{}, false
}

// find is the shard's look-up of id: its geometry when id is visible here.
// It takes no lock — a shard with an empty overlay answers from its base,
// one with pending writes from the copy it enters — unless the caller
// insists: locate's retries do, because taking mu is what waits out a
// writer still installing the id (a cross-shard move names the new owner
// before it publishes the copy) and a swap still stamping its base's slots.
func (s *mshard) find(id uint32, locked bool) (geom.Segment, bool) {
	if locked {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.lr.current().find(id, s.pos(id))
	}
	if s.pend.Load() == 0 {
		return s.base.Load().find(id, s.pos(id))
	}
	l, t := s.lr.enter()
	seg, ok := l.find(id, s.pos(id))
	s.lr.leave(t)
	return seg, ok
}

// pos is id's slot position. The copy a look-up reads is one state of the
// shard, whose layers mask any copy of an id it did not own then, so a slot
// read at another instant can miss (a retry) but never misread.
func (s *mshard) pos(id uint32) uint32 { return uint32(s.pl.ids.word(id)) }

// boundsNow returns the shard's current extent: base bounds plus any
// overlay geometry.
func (s *mshard) boundsNow() geom.Rect {
	if s.pend.Load() == 0 {
		return s.base.Load().bounds
	}
	l, t := s.lr.enter()
	out := l.bounds()
	s.lr.leave(t)
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
// existed is the previous owner, read under omu (the layering invariant).
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
		return p.evict(id, old), true, false, nil
	}

	if old != nil && old != target {
		// Cross-shard move: drop the old copy and install the new one
		// under both writer locks, acquired in ascending shard order,
		// inside one transfer bracket. The new owner is published only
		// once its lock is held, so a locate that reads it and misses waits
		// for the copy on its locked retry.
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
		old.remove(id)
		target.upsert(id, seg)
		p.wrote(old, target)
		epoch = target.epoch.Load()
		old.mu.Unlock()
		target.mu.Unlock()
		p.endXfer()
		p.m.upserted(true)
		return epoch, true, true, nil
	}

	target.mu.Lock()
	existed = old != nil
	if !existed {
		p.ids.setOwner(id, target)
		target.count.Add(1)
	}
	p.omu.Unlock()
	target.upsert(id, seg)
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
	return p.evict(id, sh), true, true, nil
}

// evict removes id from its owning shard sh, as a transfer: the id may
// re-enter through another shard while a walk that saw it here is still
// running. It is called with omu held and releases it, and returns sh's
// epoch. The owner is cleared under sh's writer lock, as every owner
// change away from a shard is, so a swap's stamp never races it.
func (p *Pool) evict(id uint32, sh *mshard) uint64 {
	sh.mu.Lock()
	p.ids.setOwner(id, nil)
	sh.count.Add(-1)
	p.beginXfer(id)
	sh.remove(id)
	p.wrote(sh, sh)
	epoch := sh.epoch.Load()
	sh.mu.Unlock()
	p.endXfer()
	return epoch
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
	// segofRetries counts locate look-ups (a walk's settle, SegOf) that
	// raced a transfer of their id.
	segofRetries *obs.Counter
	// readFallbacks counts walks that lost maxRewalks attempts to raced
	// transfers and took the one lock left on the read path, omu (settled).
	readFallbacks *obs.Counter

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
	m.readFallbacks = h.Reg.Counter("mutable_read_fallbacks_total")
	for i := 0; i < nShards; i++ {
		lbl := fmt.Sprintf("%d", i)
		m.epochG = append(m.epochG, h.Reg.Gauge(obs.Name("mutable_epoch", "shard", lbl)))
		m.pendG = append(m.pendG, h.Reg.Gauge(obs.Name("mutable_pending", "shard", lbl)))
		m.staleG = append(m.staleG, h.Reg.Gauge(obs.Name("mutable_staleness_seconds", "shard", lbl)))
	}
	return m
}
