package mutable

import (
	"slices"

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
// A multi-shard walk is not a snapshot: it can race a cross-shard transfer of
// one id — an object moving over a cut, or a delete followed by a re-insert
// elsewhere — and sight the id in both shards, or in neither. Ownership keeps
// every other id in exactly one shard at a time, so only an id in transfer
// during the walk can be wrong, and there is one rule for all of them, scans
// and k-NN alike: the walk re-derives the ids that were in transfer while it
// ran. Writers bracket every transfer with Pool.xfers, odd while one is in
// flight (beginXfer / endXfer); a walk reads the counter before and after,
// and unchanged-and-even means no transfer overlapped it — the warm path,
// two atomic loads. Otherwise it reads the overlapping transfers' ids out of
// Pool.xferRing (raced), keeps the first sighting of each (the object was
// there, matching, when that shard was read), drops any other, and looks up
// the ones it did not sight at all (locate), adding each that is held and
// matches the query. A burst that outruns the ring, or a slot already lapped,
// cannot be named: the walk runs again, maxRewalks times at most and then
// once more under omu, where no transfer can start (settled). What a caller
// may rely on is the contract table in DESIGN.md §15.

const (
	// xferRingSize is the transfer ring capacity; see Pool.xferRing.
	xferRingSize = 256
	// maxRewalks bounds a read's lock-free attempts; see settled.
	maxRewalks = 3
)

// settled runs read — one walk of the shards, resolved against the counter
// value x0 read before it — until it reports its answer settled. The last
// attempt holds omu: transfers keep it for their whole bracket, so the
// counter is even and still, and the walk settles trivially.
func (p *Pool) settled(read func(x0 uint64) bool) {
	for try := 0; try < maxRewalks; try++ {
		if read(p.xfers.Load()) {
			return
		}
	}
	p.omu.Lock()
	defer p.omu.Unlock()
	read(p.xfers.Load())
}

// quiet reports that no transfer overlapped a walk of nShards shards that
// read the counter at x0 before it began. One shard cannot disagree with
// itself.
func (p *Pool) quiet(x0 uint64, nShards int) bool {
	return nShards <= 1 || (x0&1 == 0 && p.xfers.Load() == x0)
}

// raced names the ids in transfer at any point of a walk that read the
// counter at x0 before it began: ascending, each once, in buf. Transfer i
// holds the counter at 2i+1 from before its first shard mutation until after
// its last unlock, so the walk overlapped transfers x0/2 up to the one the
// counter now shows begun. false when the ring no longer holds them all.
func (p *Pool) raced(buf *[xferRingSize]uint32, x0 uint64) ([]uint32, bool) {
	lo, hi := x0>>1, (p.xfers.Load()+1)>>1
	if hi-lo > xferRingSize {
		return nil, false
	}
	ids := buf[:0]
	for i := lo; i < hi; i++ {
		e := p.xferRing[i%xferRingSize].Load()
		if uint32(e>>32) != uint32(i+1) {
			return nil, false // lapped by a later transfer
		}
		ids = append(ids, uint32(e))
	}
	slices.Sort(ids)
	return slices.Compact(ids), true
}

// settle resolves a scan's walk, appended to dst[from:], against the
// transfers that raced it; false means walk again.
func (p *Pool) settle(dst []uint32, from int, x0 uint64, nShards int, q *query) ([]uint32, bool) {
	if p.quiet(x0, nShards) {
		return dst, true
	}
	var buf [xferRingSize]uint32
	ids, ok := p.raced(&buf, x0)
	if !ok {
		return dst, false
	}
	// One bit per id&63 spares the answer's other ids the search: with a
	// few raced transfers, the usual case, nearly all of them.
	var mask uint64
	for _, id := range ids {
		mask |= 1 << (id & 63)
	}
	var seen [xferRingSize]bool
	kept := dst[:from]
	for _, id := range dst[from:] {
		if mask&(1<<(id&63)) != 0 {
			if i, hit := slices.BinarySearch(ids, id); hit {
				if seen[i] {
					continue
				}
				seen[i] = true
			}
		}
		kept = append(kept, id)
	}
	for i, id := range ids {
		if seen[i] {
			continue
		}
		if seg, held := p.locate(id); held && q.matches(seg) {
			kept = append(kept, id)
		}
	}
	return kept, true
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

// scan is the one shard walker behind the four append queries: per shard it
// takes the lock-free packed arm (pend == 0) or the read-locked three-layer
// merge, refines when the query is exact, and finally resolves the walk
// against the transfers that raced it (settle). The query-kind and
// clean-vs-overlay branches are taken once per shard, never per candidate.
//
// A base whose bounds miss the query holds no candidate and is not searched.
// The overlays are: their objects may sit anywhere in the shard's key range,
// outside the bounds of the base they will be folded into.
func (p *Pool) scan(dst []uint32, q *query) []uint32 {
	from := len(dst)
	p.settled(func(x0 uint64) (ok bool) {
		dst = dst[:from]
		for _, s := range p.shards {
			clean := s.pend.Load() == 0
			if !clean {
				s.mu.RLock()
			}
			bv := s.base.Load()
			touched := q.touches(bv.bounds)
			if clean {
				if touched {
					dst = q.searchClean(dst, bv)
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
		dst, ok = p.settle(dst, from, x0, len(p.shards), q)
		return ok
	})
	return dst
}

// matches is the query's predicate on one geometry: what the walk's filter
// and refinement steps decide between them for an indexed object.
func (q *query) matches(seg geom.Segment) bool {
	switch mbr := seg.MBR(); {
	case q.point:
		return mbr.ContainsPoint(q.pt) && (!q.exact || seg.ContainsPoint(q.pt, q.eps))
	case q.exact:
		return seg.IntersectsRect(q.w)
	default:
		return mbr.Intersects(q.w)
	}
}

// touches reports whether the query geometry meets a shard's base bounds.
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

// searchOverlay appends the ids of o's entries whose MBR passes q's filter:
// a scan of the layer's list.
func (q *query) searchOverlay(dst []uint32, o *overlay) []uint32 {
	if q.point {
		for i := range o.ents {
			if o.ents[i].mbr.ContainsPoint(q.pt) {
				dst = append(dst, o.ents[i].id)
			}
		}
		return dst
	}
	for i := range o.ents {
		if o.ents[i].mbr.Intersects(q.w) {
			dst = append(dst, o.ents[i].id)
		}
	}
	return dst
}

// searchClean answers q on an empty-overlay shard's packed base. An exact
// query is the tree's serving kernel, refined from the segments the leaves
// carry: a clean shard masks nothing, and every base item's leaf holds its
// live segment (mergedItems packs each with it).
func (q *query) searchClean(dst []uint32, bv *baseView) []uint32 {
	switch {
	case !q.exact:
		return q.searchBase(dst, bv.tree)
	case q.point:
		return bv.tree.AppendPoint(dst, q.pt, q.eps)
	default:
		return bv.tree.AppendRange(dst, q.w)
	}
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
// overlay (if a compaction is in flight) through maskFrozen, and the live
// overlay, which is never masked. Masked ids are dropped by compacting
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
		dst = q.searchOverlay(dst, &f.segs)
		kept := dst[:n]
		for _, id := range dst[n:] {
			if !s.maskFrozen(id) {
				kept = append(kept, id)
			}
		}
		dst = kept
	}
	return q.searchOverlay(dst, &s.segs)
}
