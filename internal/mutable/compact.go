package mutable

import (
	"slices"
	"time"

	"mobispatial/internal/dynrtree"
	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
)

// Compaction folds a shard's overlay back into a freshly bulk-loaded packed
// base in three phases, blocking writers only for the two map swaps:
//
//  1. Freeze (write lock): detach the live overlay — delta tree, override
//     map, tombstones — as an immutable frozenView and install fresh empty
//     live structures. Readers now merge three layers; writers keep landing
//     in the new live overlay.
//  2. Rebuild (no locks): bulk-load a new packed base from the old base's
//     items minus frozen tombstones and superseded ids, plus the frozen
//     overlay's items. Both inputs are immutable, so queries and writes
//     proceed concurrently.
//  3. Swap (write lock): publish the new baseView through the atomic
//     pointer, drop the frozen layer, bump the epoch.
//
// A delete that arrives during phase 2 lands in the new live tombstone set,
// which masks the new base after the swap — so the rebuild never loses a
// concurrent write. The pend counter only returns to zero once no overlay
// entries remain, which is what re-arms the lock-free fast path.

// ForceCompact synchronously compacts every shard with a non-empty overlay.
// Tests and benchmarks use it to pin the "fully folded" state.
func (p *Pool) ForceCompact() {
	for _, s := range p.topo.Load().shards {
		s.compact()
	}
}

// CompactShard synchronously compacts shard i; it reports whether a
// compaction ran. An index outside the current topology is a no-op.
func (p *Pool) CompactShard(i int) bool {
	if t := p.topo.Load(); i >= 0 && i < len(t.shards) {
		return t.shards[i].compact()
	}
	return false
}

func (s *mshard) compact() bool {
	f := s.freeze()
	return f != nil && s.finishCompact(f)
}

// freeze runs phase 1, returning the detached overlay, or nil when there is
// nothing to compact or a freeze is already outstanding. Split from
// finishCompact so tests can hold the three-layer state open and query
// through it deterministically.
func (s *mshard) freeze() *frozenView {
	if fs := freezeAll([]*mshard{s}, false); fs != nil {
		return fs[0]
	}
	return nil
}

// freezeAll is phase 1 over every victim at once, all or nothing: under all
// their write locks each live overlay — delta tree, override map, tombstones
// — becomes that shard's immutable frozen layer above a fresh empty live
// overlay, whose delta tree is allocated before any lock is taken. It
// returns nil when any victim already has a freeze outstanding (a concurrent
// compaction or repartition owns it; the caller retries later).
//
// The compactor (force false) also returns nil for an empty overlay. The
// repartitioner (force true) detaches even an empty one, because the
// installed frozen layer is its mutual-exclusion token against the
// compactor: no compaction can fold a victim mid-repartition.
//
// Freezing several victims under all their locks at once is what makes a
// merge safe. Two separate freezes would leave a window where a cross-shard
// move lands its removal in the first victim's LIVE tombstones but its
// arrival in the second victim's FROZEN overlay: the swap would then see a
// live tombstone for an id whose current copy sits in the merged base and
// wrongly kill it. Detached together, any move between victims is entirely
// in the frozen snapshots or entirely in the live layers.
func freezeAll(victims []*mshard, force bool) []*frozenView {
	deltas := make([]*dynrtree.Tree, len(victims))
	for i, s := range victims {
		if !force && s.pend.Load() == 0 {
			return nil // nothing to fold: skip the allocation and the lock
		}
		nd, err := dynrtree.New(dynrtree.Config{})
		if err != nil {
			s.pl.m.compactErrs.Inc()
			return nil
		}
		deltas[i] = nd
	}
	defer lockAll(victims)()
	for _, s := range victims {
		if s.frozen != nil || (!force && len(s.overSeg)+len(s.tombs) == 0) {
			return nil
		}
	}
	fs := make([]*frozenView, len(victims))
	for i, s := range victims {
		fs[i] = s.detachWith(deltas[i])
	}
	return fs
}

// detachWith is the freeze detachment with s.mu already held in write mode:
// the live overlay becomes the immutable frozen layer and nd becomes the new
// empty live delta. The caller must have checked s.frozen == nil.
func (s *mshard) detachWith(nd *dynrtree.Tree) *frozenView {
	f := &frozenView{delta: s.delta, overSeg: s.overSeg, tombs: s.tombs}
	s.frozen = f
	s.delta = nd
	s.overSeg = map[uint32]geom.Segment{}
	s.tombs = map[uint32]struct{}{}
	return f
}

// lockAll write-locks shards in ascending li order, the order every
// multi-shard acquisition uses, and returns the matching unlock.
func lockAll(shards []*mshard) (unlock func()) {
	order := slices.Clone(shards)
	slices.SortFunc(order, func(a, b *mshard) int { return a.li - b.li })
	for _, s := range order {
		s.mu.Lock()
	}
	return func() {
		for _, s := range order {
			s.mu.Unlock()
		}
	}
}

// mergedItems is the phase 2 fold, without the tree build: the old base's
// items minus frozen tombstones and superseded ids, plus the frozen
// overlay's items. Both inputs are immutable; the result is the shard's
// visible-beneath-the-live-overlay contents, with over carrying the geometry
// of every id whose segment differs from the base dataset.
func mergedItems(old *baseView, f *frozenView) ([]rtree.Item, map[uint32]geom.Segment) {
	base := old.tree.PackOrder()
	items := make([]rtree.Item, 0, len(base)+len(f.overSeg))
	over := make(map[uint32]geom.Segment, len(old.over)+len(f.overSeg))
	// The base is walked from its middle round: pack order is all but the
	// order the rebuild will sort into, and on one sorted run pdqsort tries
	// an insertion-sort repair at every level that the overlay's few strays
	// defeat only after a long walk. Two sorted halves swapped partition
	// without the attempt — PA's four-shard fold 43-53 ms, not 55-68.
	for i := range base {
		it := base[(i+len(base)/2)%len(base)]
		if _, dead := f.tombs[it.ID]; dead {
			continue
		}
		if _, moved := f.overSeg[it.ID]; moved {
			continue
		}
		items = append(items, it)
		if seg, ok := old.over[it.ID]; ok {
			over[it.ID] = seg
		}
	}
	for id, seg := range f.overSeg {
		items = append(items, rtree.Item{MBR: seg.MBR(), ID: id})
		over[id] = seg
	}
	return items, over
}

// finishCompact runs phases 2 and 3 over a frozen overlay.
func (s *mshard) finishCompact(f *frozenView) bool {
	items, over := mergedItems(s.base.Load(), f)
	nv, err := newBaseView(s.pl.ds.Len(), items, over)
	if err != nil {
		// Cannot happen with a config that built the initial base; if it
		// somehow does, leave the frozen layer in place — reads remain
		// correct, the shard just stays on the overlay path.
		s.pl.m.compactErrs.Inc()
		return false
	}

	// Phase 3: swap.
	s.mu.Lock()
	s.base.Store(nv)
	s.frozen = nil
	s.epoch.Add(1)
	s.pendChangedLocked()
	if s.pend.Load() > 0 {
		// Live writes arrived during the rebuild; their age restarts at
		// the swap (a bounded understatement of true staleness).
		s.pendSince.Store(time.Now().UnixNano())
	}
	s.mu.Unlock()
	s.pl.m.compactions.Inc()
	return true
}

func (p *Pool) compactLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.compactInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopc:
			p.updateGauges()
			return
		case <-t.C:
			now := time.Now().UnixNano()
			// Load the topology fresh each tick: a repartition may have
			// swapped it, and retired shards need no compaction — their
			// readers drain and the shards become garbage.
			for _, s := range p.topo.Load().shards {
				pend := int(s.pend.Load())
				if pend == 0 {
					continue
				}
				aged := false
				if p.compactMaxAge > 0 {
					since := s.pendSince.Load()
					aged = since > 0 && now-since >= int64(p.compactMaxAge)
				}
				if pend >= p.compactThreshold || aged {
					s.compact()
				}
			}
			p.updateGauges()
		}
	}
}

// updateGauges publishes per-shard epoch, pending-overlay, staleness, and
// heat gauges; the serving tier's generic stats snapshot carries them to
// mqtop and mqload with no wire-format changes. Gauge rows beyond the
// current shard count (left over from before a merge) publish zero.
func (p *Pool) updateGauges() {
	t := p.topo.Load()
	t.heat.Fold()
	epochG, pendG, staleG, heatG := p.m.shardGauges(len(t.shards))
	if epochG == nil {
		return
	}
	now := time.Now().UnixNano()
	for i := range epochG {
		if i >= len(t.shards) {
			epochG[i].Set(0)
			pendG[i].Set(0)
			staleG[i].Set(0)
			heatG[i].Set(0)
			continue
		}
		s := t.shards[i]
		epochG[i].Set(float64(s.epoch.Load()))
		pendG[i].Set(float64(s.pend.Load()))
		stale := 0.0
		if since := s.pendSince.Load(); since > 0 && now > since {
			stale = float64(now-since) / float64(time.Second)
		}
		staleG[i].Set(stale)
		heatG[i].Set(t.heat.Rate(i))
	}
}
