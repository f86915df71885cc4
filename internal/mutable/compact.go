package mutable

import (
	"time"

	"mobispatial/internal/rtree"
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
//  2. Rebuild (no locks): bulk-load a new packed base from the old base's
//     items minus frozen tombstones and superseded ids, plus the frozen
//     overlay's items. Both inputs are immutable, so queries and writes
//     proceed concurrently.
//  3. Swap (writer lock): publish the new baseView, stamp the slots of the
//     ids it packs, drop the frozen layer, bump the epoch. The version
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

// mergedItems is the phase 2 fold, without the tree build: the old base's
// items minus frozen tombstones and superseded ids, plus the frozen
// overlay's items. Both inputs are immutable; the result is the shard's
// visible-beneath-the-live-overlay contents, each item carrying its live
// segment.
func mergedItems(old *baseView, f *frozenView) []rtree.Item {
	base := old.tree.PackOrder()
	items := make([]rtree.Item, 0, len(base)+f.segs.len())
	// The base is walked from its middle round: pack order is all but the
	// order the rebuild will sort into, and on one sorted run the pack sort
	// (rtree's pdqsort, sort.Sort's algorithm over (key, slot) pairs) tries
	// an insertion-sort repair at every level that the overlay's few strays
	// defeat only after a long walk. Two sorted halves swapped partition
	// without the attempt — BenchmarkFold (64 writes over PA's four shards)
	// 21-23 ms, not 24-25.
	for i := range base {
		it := base[(i+len(base)/2)%len(base)]
		if _, dead := f.tombs[it.ID]; dead {
			continue
		}
		if f.segs.has(it.ID) {
			continue // moved
		}
		items = append(items, it)
	}
	for _, e := range f.segs.ents {
		items = append(items, rtree.SegItem(e.seg, e.id))
	}
	return items
}

// finishCompact runs phases 2 and 3 over a frozen overlay.
func (s *mshard) finishCompact(f *frozenView) bool {
	nv, err := newBaseView(mergedItems(s.base.Load(), f))
	if err != nil {
		// Cannot happen with a config that built the initial base; if it
		// somehow does, leave the frozen layer in place — reads remain
		// correct, the shard just stays on the overlay path.
		s.pl.m.compactErrs.Inc()
		return false
	}

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
