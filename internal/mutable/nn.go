package mutable

import (
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/index"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// Nearest-neighbor queries fold the shards sequentially, carrying the best
// (or k-th best) distance from shard to shard as a pruning bound, exactly
// like the read-only sharded pool's cross-shard schedule. Per shard, the
// packed base is searched with the branch-and-bound traversal under a
// distance function that reports +Inf for masked (stale) ids, and the
// overlay layers — bounded by the compaction threshold — are scanned directly and
// offered through the accumulator's admit rule, so the merged answer is
// what one tree over the union would have produced.
//
// nnState is pooled so the warm path allocates nothing: the masked distance
// closure is built once per state and re-aimed at the current shard through
// the state's fields.
type nnState struct {
	p      *Pool
	sh     *mshard
	bv     *baseView
	pt     geom.Point
	masked bool
	df     index.DistFunc
}

func newNNState(p *Pool) *nnState {
	st := &nnState{p: p}
	st.df = func(id uint32) float64 {
		if st.masked && st.sh.maskBase(id) {
			return math.Inf(1)
		}
		return st.bv.seg(st.p, id).DistToPoint(st.pt)
	}
	return st
}

func (st *nnState) clear() {
	st.sh = nil
	st.bv = nil
	st.masked = false
}

// NearestWith answers one nearest-neighbor query reusing sc's traversal
// buffers; sc may be nil.
func (p *Pool) NearestWith(pt geom.Point, sc *shard.Scratch) shard.NearestResult {
	st := p.nnPool.Get().(*nnState)
	st.pt = pt
	var nnsc *rtree.NNScratch
	if sc != nil {
		nnsc = &sc.NN
	}
	// best.Dist is the running bound each later shard prunes with.
	best := shard.NearestResult{Dist: math.Inf(1)}
	t := p.topo.Load()
	for i, s := range t.shards {
		if s.base.Load().bounds.ContainsPoint(pt) {
			t.heat.Touch(i)
		}
		s.nearestInto(st, nnsc, pt, &best)
	}
	st.clear()
	p.nnPool.Put(st)
	if !best.OK {
		return shard.NearestResult{}
	}
	return best
}

func (s *mshard) nearestInto(st *nnState, nnsc *rtree.NNScratch, pt geom.Point, best *shard.NearestResult) {
	masked := s.pend.Load() != 0
	if masked {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	bv := s.base.Load()
	st.sh, st.bv, st.masked = s, bv, masked
	if id, d, ok := bv.tree.NearestWithin(pt, best.Dist, st.df, ops.Null{}, nnsc); ok {
		*best = shard.NearestResult{ID: id, Dist: d, OK: true}
	}
	if !masked {
		return
	}
	if f := s.frozen; f != nil {
		for id, seg := range f.overSeg {
			if s.maskFrozen(id) {
				continue
			}
			if d := seg.DistToPoint(pt); d < best.Dist {
				*best = shard.NearestResult{ID: id, Dist: d, OK: true}
			}
		}
	}
	for id, seg := range s.overSeg {
		if d := seg.DistToPoint(pt); d < best.Dist {
			*best = shard.NearestResult{ID: id, Dist: d, OK: true}
		}
	}
}

// KNearestAppend appends one k-NN answer (ascending distance) to dst
// reusing sc; the bool mirrors the executor contract and is always true.
func (p *Pool) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch) ([]rtree.Neighbor, bool) {
	if k <= 0 {
		return dst, true
	}
	st := p.nnPool.Get().(*nnState)
	st.pt = pt
	var local rtree.NNScratch
	nnsc := &local
	if sc != nil {
		nnsc = &sc.NN
	}
	nnsc.ResetKNN()
	x0 := p.xfers.Load()
	t := p.topo.Load()
	from := len(dst)
	for i, s := range t.shards {
		if s.base.Load().bounds.ContainsPoint(pt) {
			t.heat.Touch(i)
		}
		s.knnInto(st, nnsc, pt, k)
	}
	st.clear()
	p.nnPool.Put(st)
	dst = nnsc.DrainKNNAppend(dst)
	if len(t.shards) > 1 && p.xfers.Load() != x0 {
		dst = dedupNeighbors(dst, from)
	}
	return dst, true
}

// dedupNeighbors drops repeated ids from dst[from:], keeping the nearest
// (first) occurrence — the answer is already sorted by ascending distance.
// Quadratic, but it runs only when a cross-shard transfer raced the scan and
// k is small; the raced answer may then hold fewer than k neighbors, which
// the executor contract allows (a pool smaller than k returns what it has).
func dedupNeighbors(dst []rtree.Neighbor, from int) []rtree.Neighbor {
	w := from
	for i := from; i < len(dst); i++ {
		dup := false
		for j := from; j < w; j++ {
			if dst[j].ID == dst[i].ID {
				dup = true
				break
			}
		}
		if !dup {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

func (s *mshard) knnInto(st *nnState, nnsc *rtree.NNScratch, pt geom.Point, k int) {
	masked := s.pend.Load() != 0
	if masked {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	bv := s.base.Load()
	st.sh, st.bv, st.masked = s, bv, masked
	bv.tree.KNearestCollect(pt, k, st.df, ops.Null{}, nnsc)
	if !masked {
		return
	}
	if f := s.frozen; f != nil {
		for id, seg := range f.overSeg {
			if s.maskFrozen(id) {
				continue
			}
			nnsc.KNNOffer(k, rtree.Neighbor{ID: id, Dist: seg.DistToPoint(pt)})
		}
	}
	for id, seg := range s.overSeg {
		nnsc.KNNOffer(k, rtree.Neighbor{ID: id, Dist: seg.DistToPoint(pt)})
	}
}
