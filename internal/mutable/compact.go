package mutable

import (
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
)

// Compaction folds a shard's overlay back into a freshly bulk-loaded packed
// base in three phases, blocking writers only for the two map swaps:
//
//  1. Freeze (write lock): detach the live overlay — its segments and
//     tombstones — as an immutable frozenView and install fresh empty live
//     ones. Readers now merge three layers; writers keep landing in the new
//     live overlay.
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

// freeze runs phase 1: under the write lock the live overlay — segments and
// tombstones — becomes the shard's immutable frozen layer above a fresh
// empty live overlay. It returns nil when there is nothing to compact or a
// freeze is already outstanding (a concurrent compaction owns it). Split
// from finishCompact so tests can hold the three-layer state open and query
// through it deterministically.
func (s *mshard) freeze() *frozenView {
	if s.pend.Load() == 0 {
		return nil // nothing to fold: skip the lock
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen != nil || s.segs.len()+len(s.tombs) == 0 {
		return nil
	}
	f := &frozenView{segs: s.segs, tombs: s.tombs}
	s.frozen = f
	s.segs = newOverlay()
	s.tombs = map[uint32]struct{}{}
	return f
}

// mergedItems is the phase 2 fold, without the tree build: the old base's
// items minus frozen tombstones and superseded ids, plus the frozen
// overlay's items. Both inputs are immutable; the result is the shard's
// visible-beneath-the-live-overlay contents, each item carrying its live
// segment, with over carrying the geometry of every id whose segment differs
// from the base dataset.
func mergedItems(old *baseView, f *frozenView) ([]rtree.Item, map[uint32]geom.Segment) {
	base := old.tree.PackOrder()
	items := make([]rtree.Item, 0, len(base)+f.segs.len())
	over := make(map[uint32]geom.Segment, len(old.over)+f.segs.len())
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
		if f.segs.has(it.ID) {
			continue // moved
		}
		items = append(items, it)
		if seg, ok := old.over[it.ID]; ok {
			over[it.ID] = seg
		}
	}
	for _, e := range f.segs.ents {
		items = append(items, rtree.SegItem(e.seg, e.id))
		over[e.id] = e.seg
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
