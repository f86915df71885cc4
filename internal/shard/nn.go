package shard

import (
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
)

// Nearest-neighbor queries run best-first *across* shards, like every query
// on the caller's goroutine, and there is one walk: 1-NN is k-NN at k = 1
// and unbounded k-NN is the bounded form at +Inf. Shards are visited in
// ascending order of MBR min-distance to the query point; the k-th best
// distance found so far travels in the scratch's accumulator into every
// later shard's traversal (rtree.KNearestCollect), and the visit loop stops
// the moment the next shard's lower bound cannot beat the running bound —
// every remaining shard is pruned without touching a node. Hilbert-coherent
// shards make this scheduling sharp: the shard containing the query point is
// almost always visited first and its answer prunes the rest.

// NearestWith answers one nearest-neighbor query out of sc's accumulator;
// sc may be nil.
func (p *Pool) NearestWith(pt geom.Point, sc *Scratch) NearestResult {
	var one [1]rtree.Neighbor
	nbs, _ := p.KNearestBoundedAppend(one[:0], pt, 1, math.Inf(1), sc)
	return NearestOf(nbs)
}

// KNearestAppend appends one k-NN answer to dst in the
// rtree.Neighbor.Before order, reusing sc when non-nil. The bool is the executor contract's
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
	if sc == nil {
		sc = new(Scratch) // allocates; a warm caller brings its own
	}
	// The same scheduling the router applies across servers.
	sc.order = OrderByMinDist(sc.order[:0], p.mbrs, pt)

	sc.NN.ResetKNN()
	visited := 0
	for _, sd := range sc.order {
		// The prune: once k neighbors are known, a shard whose MBR
		// min-distance exceeds the current k-th best cannot contribute, and
		// neither can any later shard (the order is ascending). The external
		// bound prunes the same way from the first shard on.
		if sd.Dist > min(bound, sc.NN.KNNBound(k)) {
			break
		}
		visited++
		p.trees[sd.Index].KNearestCollect(pt, k, nil, &sc.NN, nil)
	}
	p.observeNN(visited, len(sc.order)-visited)
	return sc.NN.DrainKNNAppend(dst), true
}
