package mutable

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// Compaction folds a shard's overlay back into a freshly bulk-loaded packed
// base in three phases, blocking writers only for the two publishes. Both
// publish through the shard's left-right pair like a write, so no reader
// waits for either:
//
//  1. Freeze (writer lock): detach the live overlay — its segments and
//     tombstones — as an immutable frozenView and install fresh empty live
//     ones. Readers now merge three layers; writers keep landing in the new
//     live overlay.
//  2. Rebuild (no locks): pack a new base from the old base's items minus
//     frozen tombstones and superseded ids, merged with the frozen
//     overlay's items in the pool's Hilbert frame (fold). Both inputs are
//     immutable, so queries and writes proceed concurrently.
//  3. Swap (writer lock): publish the new baseView, restamp the slots of
//     the ids it moved, drop the frozen layer, bump the epoch. The version
//     stays: the fold changes no answer.
//
// A delete that arrives during phase 2 lands in the new live tombstone set,
// which masks the new base after the swap — so the rebuild never loses a
// concurrent write. The pend counter only returns to zero once no overlay
// entries remain, which is what re-arms the lock-free fast path.

// ForceCompact synchronously compacts every shard with a non-empty overlay.
// Tests and benchmarks use it to pin the "fully folded" state.
func (p *Pool) ForceCompact() {
	for _, s := range p.shards {
		s.compact()
	}
}

// CompactShard synchronously compacts shard i; it reports whether a
// compaction ran.
func (p *Pool) CompactShard(i int) bool { return p.shards[i].compact() }

func (s *mshard) compact() bool {
	f := s.freeze()
	return f != nil && s.finishCompact(f)
}

// freeze runs phase 1: under the writer lock the live overlay — segments
// and tombstones — becomes the shard's immutable frozen layer above a fresh
// empty live overlay, published and levelled, so both copies share the
// frozen layer when it returns. It returns nil when there is nothing to
// compact or a freeze is already outstanding (a concurrent compaction owns
// it). Split from finishCompact
// so tests can hold the three-layer state open and query through it
// deterministically.
func (s *mshard) freeze() *frozenView {
	if s.pend.Load() == 0 {
		return nil // nothing to fold: skip the lock
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.lr.current(); l.frozen != nil || l.segs.len()+len(l.tombs) == 0 {
		return nil
	}
	c := s.lr.publish(change{kind: changeFreeze})
	s.lr.level()
	return c.frozen
}

// fold is phase 2 without the tree build: the old base's items minus frozen
// tombstones and superseded ids, merged with the frozen overlay's items, in
// the pool's Hilbert frame (Pool.q). The base's leaves are in that frame's
// key order already — cut in it (shard.PartitionHilbert) and kept in it by
// every fold — so only the overlay's w items are keyed (shard.WriteKey: a
// segment off the map clamps for its key alone) and sorted by (key, id),
// and each is placed after every base leaf whose key is not above its own
// (ties go to the base), found by a binary search that keys w log n leaves
// rather than n. The result is a stable key sort of the surviving leaves
// followed by the overlay in id order, in O(n + w log w). Both inputs are
// immutable; each item carries its live segment.
func (s *mshard) fold(old *baseView, f *frozenView) []rtree.Item {
	key := func(it *rtree.Item) uint64 { return shard.WriteKey(s.pl.q, it.MBR) }
	ins := make([]rtree.Item, len(f.segs.ents))
	for i, e := range f.segs.ents {
		ins[i] = rtree.SegItem(e.seg, e.id)
	}
	slices.SortFunc(ins, func(a, b rtree.Item) int {
		return cmp.Or(cmp.Compare(key(&a), key(&b)), cmp.Compare(a.ID, b.ID))
	})
	base := old.tree.PackOrder()
	items := make([]rtree.Item, 0, len(base)+len(ins))
	lo := 0
	for i := range ins {
		k := key(&ins[i])
		at := lo + sort.Search(len(base)-lo, func(j int) bool { return key(&base[lo+j]) > k })
		items = append(s.survivors(items, base[lo:at], f), ins[i])
		lo = at
	}
	return s.survivors(items, base[lo:], f)
}

// survivors appends the leaves of run that f does not mask. No layer names
// a never-written id (idTable), so only a written one is looked up, and the
// leaves between two masked ones are copied as a block.
func (s *mshard) survivors(dst, run []rtree.Item, f *frozenView) []rtree.Item {
	from := 0
	for i := range run {
		id := run[i].ID
		if !s.pl.ids.written(id) {
			continue
		}
		if _, dead := f.tombs[id]; !dead && !f.segs.has(id) {
			continue
		}
		dst = append(dst, run[from:i]...)
		from = i + 1
	}
	return append(dst, run[from:]...)
}

// finishCompact runs phases 2 and 3 over a frozen overlay.
func (s *mshard) finishCompact(f *frozenView) bool {
	tree, err := rtree.Pack(s.fold(s.base.Load(), f), rtree.Config{})
	if err != nil {
		// Cannot happen with a config that built the initial base; if it
		// somehow does, leave the frozen layer in place — reads remain
		// correct, the shard just stays on the overlay path.
		s.pl.m.compactErrs.Inc()
		return false
	}
	nv := baseOf(tree)

	// Phase 3: swap. The fast path's pointer moves first: pend is nonzero
	// until publishPend finds both copies holding nv and nothing above it.
	// The slots follow before the lock drops: a look-up that read nv before
	// its stamp misses, and retries under the lock (locate).
	s.mu.Lock()
	s.base.Store(nv)
	s.lr.publish(change{kind: changeSwap, base: nv})
	s.lr.level() // no copy keeps the old base alive
	s.pl.ids.stamp(s, nv.tree.PackOrder())
	s.epoch.Add(1)
	s.publishPend()
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
			for _, s := range p.shards {
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

// updateGauges publishes per-shard epoch, pending-overlay and staleness
// gauges; the serving tier's generic stats snapshot carries them to mqtop and
// mqload with no wire-format changes.
func (p *Pool) updateGauges() {
	if p.m.epochG == nil {
		return
	}
	now := time.Now().UnixNano()
	for i, s := range p.shards {
		p.m.epochG[i].Set(float64(s.epoch.Load()))
		p.m.pendG[i].Set(float64(s.pend.Load()))
		stale := 0.0
		if since := s.pendSince.Load(); since > 0 && now > since {
			stale = float64(now-since) / float64(time.Second)
		}
		p.m.staleG[i].Set(stale)
	}
}
