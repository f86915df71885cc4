package mutable

import (
	"slices"

	"mobispatial/internal/dynrtree"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// Query surface. The four append queries run one shard walker (scan). A
// shard with an empty overlay (pend == 0) answers on the packed base through
// a lock-free atomic load — the identical zero-alloc path a read-only pool
// runs. A shard with pending updates takes its read lock and merges three
// layers (candidatesLocked). The merge allocates nothing beyond the caller's
// dst growth: masks are map lookups and candidates are compacted in place.
//
// Every query loads the topology once and walks that snapshot's shards, so
// a concurrent repartition never changes the shard set mid-query; per
// participating shard (base bounds touching the query geometry) it records
// one heat sample — a single atomic add — which is what the repartitioner's
// split/merge decisions feed on.
//
// A multi-shard scan can race a cross-shard transfer of one id — an object
// moving over a cut, a delete followed by a re-insert elsewhere, or (with
// the repartitioner on) a write landing in a live shard while the scan's
// topology snapshot still shows a retired parent holding the old copy — and
// observe the same id in two shards. Writers bump Pool.xfers between the
// removal becoming visible and the insert becoming visible, so the scan
// detects every such race by comparing the counter across its walk; only
// a transferred id can appear twice (ownership keeps every other id in
// exactly one shard at a time), so the scan reads the raced transfers'
// ids out of Pool.xferRing and scrubs second occurrences of just those
// from the appended answer. A burst that outruns the ring — or a slot
// whose write is still in flight — falls back to sort-dedup of the whole
// appended region. Every path allocates nothing; the warm path pays two
// atomic loads.
//
// The dedup can only drop ids. The opposite race — the scan reads the
// destination shard before the move and the source shard after it — leaves
// the id out of the answer although it existed throughout; nothing here
// detects or repairs that: the confirmed scan miss, open in ROADMAP.md.

const (
	// xferRingSize is the transfer ring capacity; see Pool.xferRing.
	xferRingSize = 256
	// maxXferScrub bounds how many raced transfers the per-id scrub
	// handles before the O(answer * transfers) pass would cost more than
	// the sort it replaces.
	maxXferScrub = 16
)

// dedupAppended sorts dst[base:] and compacts duplicate ids in place.
func dedupAppended(dst []uint32, base int) []uint32 {
	tail := dst[base:]
	if len(tail) < 2 {
		return dst
	}
	slices.Sort(tail)
	w := base + 1
	for i := base + 1; i < len(dst); i++ {
		if dst[i] != dst[w-1] {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

// dedupRaced resolves a multi-shard scan against the transfers that raced
// it: with the counter unchanged the answer is clean, with a small burst it
// scrubs the transferred ids read from the ring, and otherwise it sorts.
func (p *Pool) dedupRaced(dst []uint32, from int, x0 uint64, nShards int) []uint32 {
	if nShards <= 1 {
		return dst
	}
	x1 := p.xfers.Load()
	if x1 == x0 {
		return dst
	}
	if x1-x0 > maxXferScrub {
		return dedupAppended(dst, from)
	}
	var ids [maxXferScrub]uint32
	n := 0
	for x := x0 + 1; x <= x1; x++ {
		e := p.xferRing[(x-1)%xferRingSize].Load()
		if uint32(e>>32) != uint32(x) {
			// Slot write still in flight, or lapped by a newer transfer.
			return dedupAppended(dst, from)
		}
		ids[n] = uint32(e)
		n++
	}
	var seen [maxXferScrub]bool
	w := from
	for i := from; i < len(dst); i++ {
		id := dst[i]
		dup := false
		for j := 0; j < n; j++ {
			if ids[j] == id {
				if seen[j] {
					dup = true
				} else {
					seen[j] = true
				}
				break
			}
		}
		if !dup {
			dst[w] = id
			w++
		}
	}
	return dst[:w]
}

// query describes one append query: a window or a point, filter-only or
// refined against live geometry. It lives on the caller's stack.
type query struct {
	w     geom.Rect
	pt    geom.Point
	eps   float64
	point bool // point query (pt, eps); otherwise window (w)
	exact bool // refine the candidates; otherwise MBR filter only
}

// FilterRangeAppend appends the MBR-filter (candidate) answer of a window
// query to dst.
func (p *Pool) FilterRangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.scan(dst, &query{w: w})
}

// FilterPointAppend appends the MBR-filter answer of a point query to dst.
func (p *Pool) FilterPointAppend(dst []uint32, pt geom.Point) []uint32 {
	return p.scan(dst, &query{pt: pt, point: true})
}

// RangeAppend appends the exact answer of a window query to dst: the
// candidate set refined against live geometry, hits compacted in place over
// the candidate region as in the read-only pool.
func (p *Pool) RangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.scan(dst, &query{w: w, exact: true})
}

// PointAppend appends the exact answer of a point query to dst.
func (p *Pool) PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32 {
	return p.scan(dst, &query{pt: pt, eps: eps, point: true, exact: true})
}

// scan is the one shard walker behind the four append queries: per shard of
// one topology snapshot it records the heat sample, takes the lock-free
// packed arm (pend == 0) or the read-locked three-layer merge, refines when
// the query is exact, and finally resolves the walk against the transfers
// that raced it. The query-kind and clean-vs-overlay branches are taken once
// per shard, never per candidate.
//
// A base whose bounds miss the query holds no candidate and is not searched.
// The overlays are: their objects may sit anywhere in the shard's key range,
// outside the bounds of the base they will be folded into.
func (p *Pool) scan(dst []uint32, q *query) []uint32 {
	x0 := p.xfers.Load()
	t := p.topo.Load()
	from := len(dst)
	for i, s := range t.shards {
		clean := s.pend.Load() == 0
		if !clean {
			s.mu.RLock()
		}
		bv := s.base.Load()
		touched := q.touches(bv.bounds)
		if touched {
			t.heat.Touch(i)
		}
		if clean {
			if touched {
				dst = q.searchClean(dst, p, bv)
			}
			continue
		}
		n := len(dst)
		dst = s.candidatesLocked(dst, bv, q, touched)
		if q.exact {
			dst = s.refineLocked(dst, n, bv, q)
		}
		s.mu.RUnlock()
	}
	return p.dedupRaced(dst, from, x0, len(t.shards))
}

// touches reports whether the query geometry meets a shard's base bounds —
// the participation test the heat sample is gated on.
func (q *query) touches(b geom.Rect) bool {
	if q.point {
		return b.ContainsPoint(q.pt)
	}
	return b.Intersects(q.w)
}

func (q *query) searchBase(dst []uint32, t *rtree.Tree) []uint32 {
	if q.point {
		return t.AppendSearchPoint(dst, q.pt, ops.Null{})
	}
	return t.AppendSearch(dst, q.w, ops.Null{})
}

func (q *query) searchDelta(dst []uint32, t *dynrtree.Tree) []uint32 {
	if q.point {
		return t.AppendSearchPoint(dst, q.pt, ops.Null{})
	}
	return t.AppendSearch(dst, q.w, ops.Null{})
}

// searchClean answers q on an empty-overlay shard's packed base. An exact
// window query is the tree's serving kernel with the refinement fused in:
// the base's MBRs are the MBRs of the segments bv.seg resolves, so only an
// MBR straddling the window's edge costs a geometry lookup. An exact point
// query compacts its candidates in place (the write index never passes the
// read index).
func (q *query) searchClean(dst []uint32, p *Pool, bv *baseView) []uint32 {
	if q.exact && !q.point {
		return bv.tree.AppendRange(dst, q.w, func(id uint32) bool {
			return bv.seg(p, id).IntersectsRect(q.w)
		})
	}
	n := len(dst)
	dst = q.searchBase(dst, bv.tree)
	if !q.exact {
		return dst
	}
	hits := dst[:n]
	for _, id := range dst[n:] {
		if bv.seg(p, id).ContainsPoint(q.pt, q.eps) {
			hits = append(hits, id)
		}
	}
	return hits
}

// refineLocked compacts the candidates dst[n:] of a shard with pending
// updates down to the exact hits, in place, over the three-layer geometry
// lookup. There is no containment short-circuit here: a base candidate must
// pass maskBase first, so the overlay arm keeps mask-then-refine.
func (s *mshard) refineLocked(dst []uint32, n int, bv *baseView, q *query) []uint32 {
	hits := dst[:n]
	if q.point {
		for _, id := range dst[n:] {
			if s.segAnyLocked(bv, id).ContainsPoint(q.pt, q.eps) {
				hits = append(hits, id)
			}
		}
		return hits
	}
	for _, id := range dst[n:] {
		if s.segAnyLocked(bv, id).IntersectsRect(q.w) {
			hits = append(hits, id)
		}
	}
	return hits
}

// candidatesLocked merges the three layers' candidates into dst: the base
// (when the query touches its bounds) filtered through maskBase, the frozen
// delta (if a compaction is in flight) through maskFrozen, and the live
// delta, which is never masked. Masked ids are dropped by compacting
// survivors in place over the region each layer appended.
func (s *mshard) candidatesLocked(dst []uint32, bv *baseView, q *query, base bool) []uint32 {
	if base {
		n := len(dst)
		dst = q.searchBase(dst, bv.tree)
		kept := dst[:n]
		for _, id := range dst[n:] {
			if !s.maskBase(id) {
				kept = append(kept, id)
			}
		}
		dst = kept
	}
	if f := s.frozen; f != nil {
		n := len(dst)
		dst = q.searchDelta(dst, f.delta)
		kept := dst[:n]
		for _, id := range dst[n:] {
			if !s.maskFrozen(id) {
				kept = append(kept, id)
			}
		}
		dst = kept
	}
	return q.searchDelta(dst, s.delta)
}
