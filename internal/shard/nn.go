package shard

import (
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/index"
	"mobispatial/internal/ops"
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

// nnBegin prepares one NN query on the caller's scratch (a fresh one, which
// allocates, when the caller passed none): sc.order gets every shard's MBR
// min-distance to pt, ascending (OrderByMinDist — the same scheduling the
// router applies across servers), beside the distance closure to pt.
func (p *Pool) nnBegin(pt geom.Point, sc *Scratch) (*Scratch, index.DistFunc) {
	if sc == nil {
		sc = new(Scratch)
	}
	sc.order = OrderByMinDist(sc.order[:0], p.mbrs, pt)
	return sc, sc.DistTo(p.ds, pt)
}

// NearestWith answers one nearest-neighbor query reusing sc's traversal
// buffers; sc may be nil.
func (p *Pool) NearestWith(pt geom.Point, sc *Scratch) NearestResult {
	sc, df := p.nnBegin(pt, sc)

	// res.Dist is the running cross-shard bound: the best exact distance so
	// far, +Inf before the first hit.
	res := NearestResult{Dist: math.Inf(1)}
	visited := 0
	for _, sd := range sc.order {
		if sd.Dist > res.Dist {
			break
		}
		visited++
		if id, d, ok := p.trees[sd.Index].NearestWithin(pt, res.Dist, df, ops.Null{}, &sc.NN); ok {
			res = NearestResult{ID: id, Dist: d, OK: true}
		}
	}
	p.observeNN(visited, len(sc.order)-visited)
	if !res.OK {
		return NearestResult{}
	}
	return res
}

// KNearestAppend appends one k-NN answer to dst in ascending distance
// order, reusing sc when non-nil. The bool is the executor contract's
// "access method supports k-NN" and is always true here: every shard is a
// packed R-tree.
func (p *Pool) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *Scratch) ([]rtree.Neighbor, bool) {
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
func (p *Pool) KNearestBoundedAppend(dst []rtree.Neighbor, pt geom.Point, k int, bound float64, sc *Scratch) ([]rtree.Neighbor, bool) {
	if k <= 0 {
		return dst, true
	}
	if bound <= 0 {
		bound = math.Inf(1)
	}
	sc, df := p.nnBegin(pt, sc)

	sc.NN.ResetKNN()
	visited := 0
	for _, sd := range sc.order {
		// The prune: once k neighbors are known, a shard whose MBR
		// min-distance exceeds the current k-th best cannot contribute, and
		// neither can any later shard (the order is ascending). The external
		// bound prunes the same way from the first shard on.
		b := sc.NN.KNNBound(k)
		if bound < b {
			b = bound
		}
		if sd.Dist > b {
			break
		}
		visited++
		p.trees[sd.Index].KNearestCollect(pt, k, df, ops.Null{}, &sc.NN)
	}
	p.observeNN(visited, len(sc.order)-visited)
	return sc.NN.DrainKNNAppend(dst), true
}
