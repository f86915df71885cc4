package mutable

import (
	"slices"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// Query surface. Every append query runs one shard walker (scan). A
// shard with an empty overlay (pend == 0) answers on the packed base through
// a lock-free atomic load — the identical zero-alloc path a read-only pool
// runs. A shard with pending updates is entered through its left-right pair
// (leftright.go), which never waits for the shard's writer, and the copy
// entered merges three layers (searchLayers), each answering from the
// geometry it holds: the base from its leaves, an overlay from its entries —
// and, asked for records, handing that geometry back beside each id. The
// merge allocates nothing beyond the caller's dst and segment growth: masks
// are map lookups and answers are compacted in place. No read takes a lock, save
// the last attempt of settled and locate's retries.
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
// matches the query, at the geometry locate found. A burst that outruns the ring, or a slot already lapped,
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
// counter is even and still, and the walk settles trivially. It is the one
// lock a walk can take, counted in mutable_read_fallbacks_total.
func (p *Pool) settled(read func(x0 uint64) bool) {
	for try := 0; try < maxRewalks; try++ {
		if read(p.xfers.Load()) {
			return
		}
	}
	p.m.readFallbacks.Inc()
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

// settle resolves a scan's walk, appended to dst[from:] (and beside it to
// segs), against the transfers that raced it; false means walk again.
func (p *Pool) settle(dst []uint32, segs *[]geom.Segment, from int, x0 uint64, nShards int, q *query) ([]uint32, bool) {
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
	k := from
	for i := from; i < len(dst); i++ {
		if id := dst[i]; mask&(1<<(id&63)) != 0 {
			if j, hit := slices.BinarySearch(ids, id); hit {
				if seen[j] {
					continue
				}
				seen[j] = true
			}
		}
		move(dst, segs, k, i)
		k++
	}
	dst = cut(dst, segs, k)
	for i, id := range ids {
		if seen[i] {
			continue
		}
		if seg, held := p.locate(id); held && q.matches(seg) {
			dst = add(dst, segs, id, seg)
		}
	}
	return dst, true
}

// add appends one hit to dst, and its segment to segs when segs is non-nil.
func add(dst []uint32, segs *[]geom.Segment, id uint32, seg geom.Segment) []uint32 {
	if segs != nil {
		*segs = append(*segs, seg)
	}
	return append(dst, id)
}

// move and cut compact a walk's answer in place: move copies hit i to slot
// k, with its segment when segs is non-nil, and cut keeps the first k hits.
// A walk grows segs beside dst, so the tail of segs holds the segments of
// dst's tail.
func move(dst []uint32, segs *[]geom.Segment, k, i int) {
	if k == i {
		return
	}
	dst[k] = dst[i]
	if segs != nil {
		sg := *segs
		off := len(sg) - len(dst)
		sg[off+k] = sg[off+i]
	}
}

func cut(dst []uint32, segs *[]geom.Segment, k int) []uint32 {
	if segs != nil {
		*segs = (*segs)[:len(*segs)-(len(dst)-k)]
	}
	return dst[:k]
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

// SearchAppend appends the answer of window or point query q to dst — the
// MBR-filter candidates when q.Mode filters, the exact answer otherwise —
// and, when segs is non-nil, beside each id the segment the walk matched it
// at: the entry or leaf it read, or the geometry a raced id was re-checked
// at (settle). That is a geometry the object held at some instant during
// the call, at which it matched q (DESIGN.md §15).
func (p *Pool) SearchAppend(dst []uint32, segs *[]geom.Segment, q proto.QueryMsg) []uint32 {
	return p.scan(dst, segs, &query{w: q.Window, pt: q.Point, eps: q.PointEps(),
		point: q.Kind == proto.KindPoint, exact: !q.Mode.Filters()})
}

// RangeAppend appends the exact answer of a window query to dst: the ids
// whose live segment meets w.
func (p *Pool) RangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.scan(dst, nil, &query{w: w, exact: true})
}

// PointAppend appends the exact answer of a point query to dst.
func (p *Pool) PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32 {
	return p.scan(dst, nil, &query{pt: pt, eps: eps, point: true, exact: true})
}

// scan is the one shard walker behind the append queries: per shard it
// takes the packed arm (pend == 0) or the three-layer merge over the copy it
// enters, and finally resolves the walk against the transfers that raced it
// (settle). Every layer answers from the geometry it holds — the base from
// its leaves (searchBase), an overlay from its entries (searchOverlay) — so
// an exact query is refined where it is filtered. The query-kind and
// clean-vs-overlay branches are taken once per shard, never per candidate.
//
// A base whose bounds miss the query holds no candidate and is not searched.
// The overlays are: their objects may sit anywhere in the shard's key range,
// outside the bounds of the base they will be folded into. When segs is
// non-nil every layer appends the segment it matched beside each id, and
// the masks and settle keep the two in step.
func (p *Pool) scan(dst []uint32, segs *[]geom.Segment, q *query) []uint32 {
	from, sfrom := len(dst), 0
	if segs != nil {
		sfrom = len(*segs)
	}
	p.settled(func(x0 uint64) (ok bool) {
		dst = dst[:from]
		if segs != nil {
			*segs = (*segs)[:sfrom]
		}
		for _, s := range p.shards {
			if s.pend.Load() == 0 {
				if bv := s.base.Load(); q.touches(bv.bounds) {
					dst = q.searchBase(dst, segs, bv)
				}
				continue
			}
			l, t := s.lr.enter()
			dst = s.searchLayers(dst, segs, q, l)
			s.lr.leave(t)
		}
		dst, ok = p.settle(dst, segs, from, x0, len(p.shards), q)
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

// searchBase answers q on a packed base with the tree's serving kernel, an
// exact query refined from the segments the leaves carry. Every base item's
// leaf holds its live segment (a fold packs each with it) unless an
// overlay above masks the id, so a shard with pending writes drops the
// masked ids afterwards (searchLayers).
func (q *query) searchBase(dst []uint32, segs *[]geom.Segment, bv *baseView) []uint32 {
	switch {
	case q.point && q.exact:
		return bv.tree.AppendPoint(dst, segs, q.pt, q.eps, nil)
	case q.point:
		return bv.tree.AppendRange(dst, segs, geom.Rect{Min: q.pt, Max: q.pt}, false, nil)
	default:
		return bv.tree.AppendRange(dst, segs, q.w, q.exact, nil)
	}
}

// searchOverlay appends the ids of o's entries that answer q (and their
// segments to segs when it is non-nil): each entry is filtered on the MBR
// it stores and, for an exact query, refined on its segment. One loop per
// query shape keeps the predicates inline.
func (q *query) searchOverlay(dst []uint32, segs *[]geom.Segment, o *overlay) []uint32 {
	if q.point {
		for i := range o.ents {
			e := &o.ents[i]
			if e.mbr.ContainsPoint(q.pt) && (!q.exact || e.seg.ContainsPoint(q.pt, q.eps)) {
				dst = add(dst, segs, e.id, e.seg)
			}
		}
		return dst
	}
	for i := range o.ents {
		e := &o.ents[i]
		if e.mbr.Intersects(q.w) && (!q.exact || e.seg.IntersectsRect(q.w)) {
			dst = add(dst, segs, e.id, e.seg)
		}
	}
	return dst
}

// searchLayers merges the answers of copy l of a shard with pending writes
// into dst, each layer answering from the geometry it holds: the base (when
// the query touches its bounds) filtered through maskBase, the frozen
// overlay (if a compaction is in flight) through maskFrozen, and the live
// overlay, which is never masked. A mask depends on the id alone, so
// dropping the masked ids after the refinement keeps exactly what dropping
// them before would; survivors are compacted in place over the region each
// layer appended, their segments with them.
func (s *mshard) searchLayers(dst []uint32, segs *[]geom.Segment, q *query, l *layers) []uint32 {
	if bv := l.base; q.touches(bv.bounds) {
		k := len(dst)
		dst = q.searchBase(dst, segs, bv)
		for i := k; i < len(dst); i++ {
			if !s.maskBase(l, dst[i]) {
				move(dst, segs, k, i)
				k++
			}
		}
		dst = cut(dst, segs, k)
	}
	if f := l.frozen; f != nil {
		k := len(dst)
		dst = q.searchOverlay(dst, segs, &f.segs)
		for i := k; i < len(dst); i++ {
			if !l.maskFrozen(dst[i]) {
				move(dst, segs, k, i)
				k++
			}
		}
		dst = cut(dst, segs, k)
	}
	return q.searchOverlay(dst, segs, &l.segs)
}
