// nn.go is the cross-server best-first nearest-neighbor search — the same
// MINDIST + running-k-th-bound algorithm internal/shard runs across its
// shards, lifted one level and planned in the space route plans in: the
// RANGES are taken in ascending order of their effective extent's MINDIST to
// the query point, each costs one leg to one of its holders, the leg carries
// the running bound so the backend prunes whole shards against it, and the
// loop stops when the nearest range still open cannot beat the k-th best.
// Every query reaches it through route: a k-NN's first leg is a slot of the
// round, and the visit goes on from that answer (finishNN). Every leg answers
// records, nearest first (ModeCandidates); the router recomputes each one's
// distance with the DistToPoint its backend's walk used, so the merged
// answer is the one a single engine over the union gives, bit for bit, and
// its records are the ones the walks matched.
package router

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// KNearestAppendUntil answers one cluster-wide k-NN query in the
// rtree.Neighbor.Before order: a batch of one, its legs ModeCandidates
// items. A k the wire's 16-bit field cannot carry is refused, never
// truncated.
func (r *Router) KNearestAppendUntil(dst []rtree.Neighbor, pt geom.Point, k int, _ *shard.Scratch, deadline time.Time) ([]rtree.Neighbor, error) {
	if k <= 0 {
		return dst, nil
	}
	if k > math.MaxUint16 {
		return dst, &routerError{code: proto.CodeBadRequest, msg: fmt.Sprintf("router: k=%d exceeds the wire limit %d", k, math.MaxUint16)}
	}
	fs := r.getScratch()
	defer r.putScratch(fs)
	q := proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeCandidates, Point: pt, K: uint16(k)}
	if err := r.routeOne(fs, q, deadline, sendBatch); err != nil {
		return dst, err
	}
	for _, rec := range fs.item[0].Recs {
		dst = append(dst, neighborOf(rec, pt))
	}
	return dst, nil
}

// neighborOf is record rec as a neighbor of pt: its distance computed from
// its segment exactly as every engine computes it.
func neighborOf(rec proto.Record, pt geom.Point) rtree.Neighbor {
	return rtree.Neighbor{ID: rec.ID, Dist: rec.Seg.DistToPoint(pt), Seg: rec.Seg}
}

// finishNN completes a k-NN sub-query q — of a client batch, or a single
// k-NN as a batch of one — whose first leg, to backend b, left its k nearest
// records over b's whole pool in it.Recs: the visit goes on from that state
// — b answered, the ranges it holds closed, the call's failed backends still
// out — and ends without a leg when every range b does not hold lies beyond
// the k-th distance. The answer replaces it.Recs, nearest first: records for
// a records mode (ModeData, ModeCandidates), ids otherwise. It returns the
// legs the visit took.
func (r *Router) finishNN(sc *fanScratch, t *routing, q *proto.QueryMsg, it *proto.BatchItem, b int32, deadline time.Time) int {
	k := max(int(q.K), 1)
	sc.sel, sc.acc, sc.open = sc.sel[:0], sc.acc[:0], sc.open[:0]
	for _, rec := range it.Recs[:min(len(it.Recs), k)] {
		sc.acc = append(sc.acc, neighborOf(rec, q.Point))
	}
	for range t.numRanges {
		sc.open = append(sc.open, true) // nothing answered, nothing pruned yet
	}
	sc.answeredBy(t, b)
	legs, err := r.knn(sc, t, q.Point, k, deadline)
	it.Recs = it.Recs[:0]
	switch {
	case err != nil:
		it.Err, it.Text = proto.CodeOf(err)
	case q.Mode.Records():
		for _, nb := range sc.acc {
			it.Recs = append(it.Recs, proto.Record{ID: nb.ID, Seg: nb.Seg})
		}
	default:
		for _, nb := range sc.acc {
			it.IDs = append(it.IDs, nb.ID)
		}
	}
	return legs
}

// answeredBy records that backend b answered the k-NN in progress: it joins
// fs.sel and closes every range it holds, except a divergent one, which
// closes only when all its holders were asked.
func (fs *fanScratch) answeredBy(t *routing, b int32) {
	fs.sel = append(fs.sel, b)
	for rg, held := range t.holds[b] {
		if held && !t.divergent[rg] {
			fs.open[rg] = false
		}
	}
}

// knn is the range-space visit from the state in fs — acc the best
// neighbors so far, sel the backends that answered, open the ranges neither
// answered nor pruned, failed the backends out for the call — and returns
// the legs it took; the answer is fs.acc. Completeness: the loop ends only
// when every range was answered by a visited holder or has MINDIST above
// the final k-th distance — a backend answers a leg over its whole pool, so
// one leg answers every range the backend holds (the fact route's merge
// relies on), and MINDIST of a range's effective extent lower-bounds every
// item in it, so a pruned range cannot improve on the k found. An un-pruned
// range with no usable holder left could silently hide true neighbors, so
// the query fails CodeUnavailable instead. A divergent range's extent is
// everything: it bounds nothing, and any holder may be the lagging one, so
// every usable holder of it is asked.
func (r *Router) knn(fs *fanScratch, t *routing, pt geom.Point, k int, deadline time.Time) (int, error) {
	fs.eff = fs.eff[:0]
	for rg := range t.numRanges {
		fs.eff = append(fs.eff, t.eff(rg))
	}
	fs.order = shard.OrderByMinDist(fs.order[:0], fs.eff, pt)

	// leg asks backend b under the running bound — one ModeCandidates item,
	// the bound in its Eps (0 = none yet) — and merges its answer.
	legs := 0
	lg := &fs.nnLeg
	leg := func(b int32) bool {
		legs++
		lg.reset()
		lg.qs = append(lg.qs, proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeCandidates, Point: pt, K: uint16(k)})
		if len(fs.acc) == k {
			lg.qs[0].Eps = fs.acc[k-1].Dist
		}
		start := time.Now()
		err := sendBatch(r.clients[b], lg, r.legDeadline(deadline))
		r.observeLeg(int(b), time.Since(start), err)
		if err != nil || lg.code[0] != 0 {
			fs.failed[b] = true
			r.metrics.failovers.Inc()
			return false
		}
		fs.answeredBy(t, b)
		_, recs := lg.answer(0)
		fs.acc = mergeNeighbors(fs.acc, recs, pt, k, &fs.nbrTmp)
		return true
	}
	for _, sd := range fs.order {
		rg := sd.Index
		if !fs.open[rg] {
			continue
		}
		if len(fs.acc) == k && sd.Dist > fs.acc[k-1].Dist {
			break // ascending order: every range still open is pruned
		}
		answered := false
		if t.divergent[rg] {
			for _, b := range t.holders[rg] {
				if slices.Contains(fs.sel, b) || (r.usable(fs, b) && leg(b)) {
					answered = true
				}
			}
		}
		for !answered { // one holder; the next one if its leg dies
			b := r.pick(t.table, fs, rg)
			if b < 0 {
				r.metrics.unroutable.Inc()
				return legs, errUnavailable(int(rg))
			}
			answered = leg(b)
		}
		fs.open[rg] = false
	}
	// Contacted: the backends that answered, and those out for the call —
	// each failed a leg, of this query or of another in its batch.
	contacted := len(fs.sel)
	for b, failed := range fs.failed {
		if failed && !slices.Contains(fs.sel, int32(b)) {
			contacted++
		}
	}
	r.metrics.nnVisited.Add(uint64(len(fs.sel)))
	r.metrics.nnPruned.Add(uint64(len(r.clients) - contacted))
	return legs, nil
}

// NearestWith implements serve.Executor (plain surface; see exec.go): the
// k-NN at k = 1.
func (r *Router) NearestWith(pt geom.Point, sc *shard.Scratch) shard.NearestResult {
	var one [1]rtree.Neighbor
	nbs, _ := r.KNearestAppendUntil(one[:0], pt, 1, sc, time.Time{})
	return shard.NearestOf(nbs)
}

// KNearestAppend implements serve.Executor (plain surface; see exec.go).
func (r *Router) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch) ([]rtree.Neighbor, bool) {
	dst, _ = r.KNearestAppendUntil(dst, pt, k, sc, time.Time{})
	return dst, true
}

// mergeNeighbors merges a leg's records, nearest pt first, into the running
// best-k a, in the (distance, id) order every backend answers in
// (rtree.Neighbor.Before), each record's distance recomputed as its backend
// computed it. An id two replicas both report at one distance is kept once.
// tmp is the caller's reusable merge buffer.
func mergeNeighbors(a []rtree.Neighbor, b []proto.Record, pt geom.Point, k int, tmp *[]rtree.Neighbor) []rtree.Neighbor {
	out := (*tmp)[:0]
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		var nb rtree.Neighbor
		if j < len(b) {
			nb = neighborOf(b[j], pt)
		}
		if j >= len(b) || (i < len(a) && !nb.Before(a[i])) {
			nb = a[i]
			i++
		} else {
			j++
		}
		// Replicas agreeing on an item report it at one distance, so a
		// repeat sits in the merged tail's equal-distance run.
		dup := false
		for x := len(out) - 1; x >= 0 && out[x].Dist == nb.Dist && !dup; x-- {
			dup = out[x].ID == nb.ID
		}
		if !dup {
			out = append(out, nb)
		}
	}
	*tmp = out
	return append(a[:0], out...)
}
