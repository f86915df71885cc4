package shard

import (
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/index"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/rtree"
)

// Nearest-neighbor queries run best-first *across* shards, like every query
// on the caller's goroutine. Shards are visited in ascending order
// of MBR min-distance to the query point; the best distance found so far is
// carried into every later shard's traversal (rtree.NearestWithin /
// KNearestCollect), and the visit loop stops the moment the next shard's
// lower bound cannot beat the running bound — every remaining shard is
// pruned without touching a node. Hilbert-coherent shards make this
// scheduling sharp: the shard containing the query point is almost always
// visited first and its answer prunes the rest.

// nnState is the pooled per-query NN scratch: the visit order buffer plus a
// fallback parallel.Scratch for callers that passed none.
type nnState struct {
	order []IndexDist
	psc   parallel.Scratch
}

// nnBegin takes a pooled state and prepares one NN query: ns.order gets
// every shard's MBR min-distance to pt, ascending (OrderByMinDist — the same
// scheduling the router applies across servers), and the distance closure
// and traversal scratch come from the caller's scratch when present, the
// pooled state's otherwise. The caller returns ns with p.nnStates.Put.
func (p *Pool) nnBegin(pt geom.Point, sc *parallel.Scratch) (*nnState, index.DistFunc, *rtree.NNScratch) {
	ns := p.nnStates.Get().(*nnState)
	ns.order = OrderByMinDist(ns.order[:0], p.mbrs, pt)
	if sc == nil {
		sc = &ns.psc
	}
	return ns, sc.DistTo(p.ds, pt), &sc.NN
}

// Nearest answers one nearest-neighbor query.
func (p *Pool) Nearest(pt geom.Point) parallel.NearestResult {
	return p.NearestWith(pt, nil)
}

// NearestWith answers one nearest-neighbor query reusing sc's traversal
// buffers; sc may be nil.
func (p *Pool) NearestWith(pt geom.Point, sc *parallel.Scratch) parallel.NearestResult {
	ns, df, nnsc := p.nnBegin(pt, sc)

	var res parallel.NearestResult
	visited := 0
	for _, sd := range ns.order {
		if res.OK && sd.Dist > res.Dist {
			break
		}
		visited++
		if id, d, ok := p.trees[sd.Index].NearestWithin(pt, nnBound(res), df, ops.Null{}, nnsc); ok {
			res = parallel.NearestResult{ID: id, Dist: d, OK: true}
		}
	}
	p.observeNN(visited, len(ns.order)-visited)
	p.nnStates.Put(ns)
	return res
}

// nnBound is the running cross-shard bound: the best exact distance so far,
// +Inf before the first hit.
func nnBound(res parallel.NearestResult) float64 {
	if res.OK {
		return res.Dist
	}
	return math.Inf(1)
}

// KNearest answers one k-nearest-neighbor query.
func (p *Pool) KNearest(pt geom.Point, k int) ([]rtree.Neighbor, bool) {
	return p.KNearestAppend(nil, pt, k, nil)
}

// KNearestAppend appends one k-NN answer to dst in ascending distance
// order, reusing sc when non-nil. The bool mirrors parallel.Pool's
// "access method supports k-NN" result and is always true here: every
// shard is a packed R-tree.
func (p *Pool) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *parallel.Scratch) ([]rtree.Neighbor, bool) {
	return p.KNearestBoundedAppend(dst, pt, k, math.Inf(1), sc)
}

// KNearestBoundedAppend is KNearestAppend seeded with an external pruning
// bound — the distributed tier's NN leg: the router carries the running
// k-th-neighbor distance from earlier servers into this one, so shards that
// cannot beat what other servers already found are pruned without a visit.
// The bound is a hint, not a filter: the answer may include neighbors
// farther than bound (the caller's merge discards them), but it always
// includes every indexed neighbor closer than bound, up to k. +Inf (or any
// non-positive bound) disables the extra pruning.
func (p *Pool) KNearestBoundedAppend(dst []rtree.Neighbor, pt geom.Point, k int, bound float64, sc *parallel.Scratch) ([]rtree.Neighbor, bool) {
	if k <= 0 {
		return dst, true
	}
	if bound <= 0 {
		bound = math.Inf(1)
	}
	ns, df, nnsc := p.nnBegin(pt, sc)

	nnsc.ResetKNN()
	visited := 0
	for _, sd := range ns.order {
		// The prune: once k neighbors are known, a shard whose MBR
		// min-distance exceeds the current k-th best cannot contribute, and
		// neither can any later shard (the order is ascending). The external
		// bound prunes the same way from the first shard on.
		b := nnsc.KNNBound(k)
		if bound < b {
			b = bound
		}
		if sd.Dist > b {
			break
		}
		visited++
		p.trees[sd.Index].KNearestCollect(pt, k, df, ops.Null{}, nnsc)
	}
	p.observeNN(visited, len(ns.order)-visited)
	dst = nnsc.DrainKNNAppend(dst)
	p.nnStates.Put(ns)
	return dst, true
}
