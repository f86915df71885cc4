package mutable

import (
	"math"
	"slices"

	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// Nearest-neighbor queries are one walk, scheduled exactly like the
// read-only sharded pool's (shard/nn.go): 1-NN is k-NN at k = 1, unbounded
// k-NN is the bounded form at +Inf, the shards are visited best-first by
// base-bounds min-distance (shard.OrderByMinDist), and the k-th best distance
// travels from shard to shard in the accumulator, beside the router's
// external bound. Per shard (knnInto) a packed base the bound rules out is
// skipped; one it does not is searched with the branch-and-bound traversal,
// which takes each item's distance from the segment its leaf carries and,
// on a shard with pending writes, leaves out the masked (stale) ids. The
// overlay layers — bounded by the compaction threshold — are scanned
// directly and offered through the accumulator's admit rule whether or not
// the base was pruned (their objects may lie outside the base bounds), so
// the merged answer is what one tree over the union would have produced.
//
// nnState is pooled so the warm path allocates nothing: the mask closure is
// built once per state and re-aimed at the current shard through the
// state's field; the visit-order buffers, and the accumulator of a caller
// that brought no scratch, live there too.
type nnState struct {
	sh   *mshard
	pt   geom.Point
	mask func(id uint32) bool

	mbrs  []geom.Rect
	order []shard.IndexDist
	nn    rtree.NNScratch
}

func newNNState() *nnState {
	st := &nnState{}
	st.mask = func(id uint32) bool { return st.sh.maskBase(id) }
	return st
}

// NearestWith answers one nearest-neighbor query out of sc's accumulator;
// sc may be nil.
func (p *Pool) NearestWith(pt geom.Point, sc *shard.Scratch) shard.NearestResult {
	var one [1]rtree.Neighbor
	nbs, _ := p.KNearestBoundedAppend(one[:0], pt, 1, math.Inf(1), sc)
	return shard.NearestOf(nbs)
}

// KNearestAppend appends one k-NN answer (ascending distance) to dst
// reusing sc; the bool mirrors the executor contract and is always true.
func (p *Pool) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch) ([]rtree.Neighbor, bool) {
	return p.KNearestBoundedAppend(dst, pt, k, math.Inf(1), sc)
}

// KNearestBoundedAppend is KNearestAppend seeded with the router's running
// k-th-neighbor bound, under shard.Pool's contract: a hint, not a filter —
// every held neighbor closer than bound is in the answer, up to k; +Inf or a
// non-positive bound disables it. A server walks every k-NN on this pool here.
func (p *Pool) KNearestBoundedAppend(dst []rtree.Neighbor, pt geom.Point, k int, bound float64, sc *shard.Scratch) ([]rtree.Neighbor, bool) {
	if k <= 0 {
		return dst, true
	}
	if bound <= 0 {
		bound = math.Inf(1)
	}
	st := p.nnPool.Get().(*nnState)
	st.pt = pt
	nnsc := &st.nn
	if sc != nil {
		nnsc = &sc.NN
	}
	from := len(dst)
	p.settled(func(x0 uint64) (ok bool) {
		nnsc.ResetKNN()
		st.mbrs = st.mbrs[:0]
		for _, s := range p.shards {
			st.mbrs = append(st.mbrs, s.base.Load().bounds)
		}
		st.order = shard.OrderByMinDist(st.order[:0], st.mbrs, pt)
		for _, sd := range st.order {
			p.shards[sd.Index].knnInto(st, nnsc, k, bound)
		}
		dst, ok = p.settleNN(dst[:from], x0, len(p.shards), nnsc, pt, k, bound)
		return ok
	})
	st.sh = nil
	p.nnPool.Put(st)
	return dst, true
}

// knnInto is the per-shard step: fold s's k nearest into the accumulator.
// The base is pruned against the bounds of the view actually searched (the
// visit order was computed from a possibly older one): it is skipped when
// its min-distance exceeds the running k-th best or the external bound. The
// overlay is offered regardless.
func (s *mshard) knnInto(st *nnState, nnsc *rtree.NNScratch, k int, bound float64) {
	masked := s.pend.Load() != 0
	if masked {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	bv := s.base.Load()
	if bv.bounds.MinDist(st.pt) <= min(bound, nnsc.KNNBound(k)) {
		var skip func(uint32) bool
		if masked {
			st.sh, skip = s, st.mask
		}
		bv.tree.KNearestCollect(st.pt, k, skip, nnsc)
	}
	if !masked {
		return
	}
	if f := s.frozen; f != nil {
		for _, e := range f.segs.ents {
			if s.maskFrozen(e.id) {
				continue
			}
			nnsc.KNNOffer(k, rtree.Neighbor{ID: e.id, Dist: e.seg.DistToPoint(st.pt)})
		}
	}
	for _, e := range s.segs.ents {
		nnsc.KNNOffer(k, rtree.Neighbor{ID: e.id, Dist: e.seg.DistToPoint(st.pt)})
	}
}

// settleNN drains one walk's accumulator into dst and resolves it against
// the transfers that raced the walk, by the rule of read.go: one sighting of
// a raced id stays, a second is dropped, an id not sighted is offered at the
// geometry locate finds. false means re-walk: the ring could not name the
// raced ids, or a dropped sighting left the answer short of what the walk had
// pruned by — every neighbor the walk did not keep is at or beyond its final
// pruning bound, so an answer whose k-th distance is within that bound is
// complete.
func (p *Pool) settleNN(dst []rtree.Neighbor, x0 uint64, nShards int, nnsc *rtree.NNScratch, pt geom.Point, k int, bound float64) ([]rtree.Neighbor, bool) {
	pruned := min(bound, nnsc.KNNBound(k))
	from := len(dst)
	dst = nnsc.DrainKNNAppend(dst)
	if p.quiet(x0, nShards) {
		return dst, true
	}
	var buf [xferRingSize]uint32
	ids, ok := p.raced(&buf, x0)
	if !ok {
		return dst, false
	}
	var seen [xferRingSize]bool
	for _, nb := range dst[from:] {
		if i, hit := slices.BinarySearch(ids, nb.ID); hit {
			if seen[i] {
				continue
			}
			seen[i] = true
		}
		nnsc.KNNOffer(k, nb)
	}
	for i, id := range ids {
		if seen[i] {
			continue
		}
		if seg, held := p.locate(id); held {
			nnsc.KNNOffer(k, rtree.Neighbor{ID: id, Dist: seg.DistToPoint(pt)})
		}
	}
	ok = pruned >= bound || nnsc.KNNBound(k) <= pruned
	return nnsc.DrainKNNAppend(dst[:from]), ok
}
