// nn.go is the cross-server best-first nearest-neighbor search — the same
// MINDIST + running-k-th-bound algorithm internal/shard runs across its
// shards, lifted one level: backends are visited in ascending order of
// their bounds' MINDIST to the query point, each leg carries the running
// bound so the backend prunes whole shards against it, and the visit loop
// stops when the next backend's lower bound cannot beat the k-th best.
package router

import (
	"math"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// legStatus is one backend's disposition within one NN query.
type legStatus uint8

const (
	legUntouched legStatus = iota
	legVisited             // leg sent and answered
	legPruned              // MINDIST could not beat the running bound
	legSkipped             // breaker open, never contacted
	legFailed              // leg sent and errored
)

// KNearestAppendUntil answers one cluster-wide k-NN query, ascending by
// distance. The answer is complete when every range is accounted for by a
// visited or pruned backend; pruned is as good as visited — MINDIST of a
// backend's bounds lower-bounds every item it holds, so a pruned backend
// cannot improve on the k found. If a range's every holder failed or was
// skipped, the answer could silently miss true neighbors, so the query
// fails CodeUnavailable instead.
func (r *Router) KNearestAppendUntil(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch, deadline time.Time) ([]rtree.Neighbor, error) {
	if k <= 0 {
		return dst, nil
	}
	deadline = r.deadlineOr(deadline)
	fs := r.getScratch()
	defer r.putScratch(fs)

	// Effective backend bounds: the snapshot's registered bounds widened by
	// the growth of writes routed since. Without the widening, a backend
	// that registered empty reports an empty rect — MINDIST +Inf — and is
	// pruned the moment any bound is set, permanently hiding objects later
	// written into it. A backend holding a divergent range gets unbounded
	// effective bounds (MINDIST 0): its summary cannot be trusted to bound
	// its data, so it is always visited rather than risk a silent miss.
	t := r.snap()
	fs.beEff = fs.beEff[:0]
	for b, bb := range t.beBounds {
		fs.beEff = append(fs.beEff, bb.Union(t.beGrow[b]))
	}
	for rg, d := range t.divergent {
		if !d {
			continue
		}
		for _, b := range t.holders[rg] {
			fs.beEff[b] = everythingRect
		}
	}
	fs.order = shard.OrderByMinDist(fs.order[:0], fs.beEff, pt)
	fs.acc = fs.acc[:0]
	visited := 0
	for _, sd := range fs.order {
		b := int(sd.Index)
		bound := math.Inf(1)
		if len(fs.acc) == k {
			bound = fs.acc[k-1].Dist
		}
		if sd.Dist > bound {
			break // ascending order: every remaining backend is pruned
		}
		if !r.BackendHealthy(b) {
			fs.status[b] = legSkipped
			continue
		}
		start := time.Now()
		nbrs, err := r.clients[b].KNearestNeighborsAppendUntil(fs.nbrBuf[:0], pt, k, bound, r.legDeadline(deadline))
		fs.nbrBuf = nbrs
		r.observeLeg(b, time.Since(start), err)
		if err != nil {
			fs.status[b] = legFailed
			r.metrics.failovers.Inc()
			continue
		}
		fs.status[b] = legVisited
		visited++
		fs.acc = mergeNeighbors(fs.acc, nbrs, k, &fs.nbrTmp)
	}
	// Everything still untouched was pruned by the bound — including
	// unhealthy backends past the break point: health does not matter for a
	// backend whose items provably cannot enter the answer.
	pruned := 0
	for _, sd := range fs.order {
		if fs.status[sd.Index] == legUntouched {
			fs.status[sd.Index] = legPruned
			pruned++
		}
	}
	r.metrics.nnVisited.Add(uint64(visited))
	r.metrics.nnPruned.Add(uint64(pruned))
	r.metrics.fanout.Observe(float64(visited))

	// Coverage: every range needs one holder whose answer (or pruning)
	// accounts for its items.
	for rg, hs := range t.holders {
		ok := false
		for _, b := range hs {
			if st := fs.status[b]; st == legVisited || st == legPruned {
				ok = true
				break
			}
		}
		if !ok {
			r.metrics.unroutable.Inc()
			return dst, errUnavailable(rg)
		}
	}
	for _, nb := range fs.acc {
		dst = append(dst, rtree.Neighbor{ID: nb.ID, Dist: nb.Dist})
	}
	return dst, nil
}

// NearestUntil answers one cluster-wide nearest-neighbor query.
func (r *Router) NearestUntil(pt geom.Point, sc *shard.Scratch, deadline time.Time) (shard.NearestResult, error) {
	var buf [1]rtree.Neighbor
	nbs, err := r.KNearestAppendUntil(buf[:0], pt, 1, sc, deadline)
	if err != nil {
		return shard.NearestResult{}, err
	}
	return shard.NearestOf(nbs), nil
}

// NearestWith implements serve.Executor (plain surface; see exec.go).
func (r *Router) NearestWith(pt geom.Point, sc *shard.Scratch) shard.NearestResult {
	res, _ := r.NearestUntil(pt, sc, time.Time{})
	return res
}

// KNearestAppend implements serve.Executor (plain surface; see exec.go).
func (r *Router) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch) ([]rtree.Neighbor, bool) {
	dst, _ = r.KNearestAppendUntil(dst, pt, k, sc, time.Time{})
	return dst, true
}

// mergeNeighbors merges two ascending neighbor lists into the best k,
// deduplicating by id (the same item reported by two replicas carries the
// same exact distance, so duplicates are adjacent within an equal-distance
// run). tmp is the caller's reusable merge buffer.
func mergeNeighbors(a, b []proto.Neighbor, k int, tmp *[]proto.Neighbor) []proto.Neighbor {
	out := (*tmp)[:0]
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		var nb proto.Neighbor
		if j >= len(b) || (i < len(a) && a[i].Dist <= b[j].Dist) {
			nb = a[i]
			i++
		} else {
			nb = b[j]
			j++
		}
		if dupNeighbor(out, nb) {
			continue
		}
		out = append(out, nb)
	}
	*tmp = out
	return append(a[:0], out...)
}

// dupNeighbor reports whether nb's id already sits in the merged tail's
// equal-distance run.
func dupNeighbor(out []proto.Neighbor, nb proto.Neighbor) bool {
	for x := len(out) - 1; x >= 0 && out[x].Dist == nb.Dist; x-- {
		if out[x].ID == nb.ID {
			return true
		}
	}
	return false
}
