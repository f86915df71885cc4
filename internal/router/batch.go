// batch.go is the locality-aware batch executor: the serve.BatchExecutor
// surface the router exposes so a client batch (MsgBatchQuery) fans out as
// ONE wire leg per owning backend instead of one full fan-out per sub-query.
//
// The per-item path costs legs × sub-queries: a 32-query batch over a
// 4-backend cluster pays up to 128 round trips even when every sub-query's
// ranges live on one backend. Here the router plans the whole batch against
// one routing snapshot, groups the range/point sub-queries by the backends
// chosen to cover their ranges, ships each group as a single MsgBatchQuery
// leg, and stitches the per-item answers back in client order. A sub-query
// whose ranges span several backends contributes one slot to each owning
// leg and its answers merge by sorted dedup, exactly like the single-query
// fan-out. NN sub-queries keep the per-item best-first visit (nn.go) — the
// running k-th-bound protocol is inherently sequential across backends and
// gains nothing from grouping — and they run on the calling goroutine while
// the grouped legs are in flight.
//
// Failure handling is two-tier: a failed leg (or a per-slot backend error)
// does not fail its sub-queries — each one falls back to the per-item
// fan-out, which carries its own cover/failover machinery. Only when that
// also fails does the error land in the item.
package router

import (
	"errors"
	"slices"
	"sync"
	"time"

	"mobispatial/internal/proto"
)

// batchLeg is one backend's share of a client batch: the sub-query indices
// it answers, the rewritten leg queries, and the per-slot results copied out
// of the pooled reply during the visit.
type batchLeg struct {
	b    int32
	qis  []int            // indices into the client batch
	qs   []proto.QueryMsg // leg queries (ModeData rewritten to ModeIDs)
	ids  [][]uint32       // per slot: answer ids
	code []proto.ErrCode  // per slot: backend-reported error
	err  error            // whole-leg failure
}

// RunQueryBatch implements serve.BatchExecutor: items[i] answers qs[i], in
// id space only (record materialization stays with the serve layer). Slots
// arriving with Err pre-set were rejected by the server and are skipped.
func (r *Router) RunQueryBatch(qs []proto.QueryMsg, items []proto.BatchItem, deadline time.Time) {
	deadline = r.deadlineOr(deadline)
	r.metrics.batches.Inc()
	r.metrics.batchQueries.Add(uint64(len(qs)))

	// One snapshot for the whole batch: every sub-query is planned against
	// the same assignment, so "one leg per owning backend" holds even if a
	// refresh swaps the table mid-plan.
	t := r.snap()

	legs, legOf := []*batchLeg(nil), make(map[int32]*batchLeg)
	owners := make([][]int32, len(qs)) // backends covering each sub-query
	used := make([]bool, len(r.clients))
	rot := int(r.rr.Add(1))
	var needed []int32
	var nnIdx []int

	for i := range qs {
		it := &items[i]
		if it.Err != 0 {
			continue // pre-rejected by the serve layer
		}
		q := &qs[i]
		if q.Kind == proto.KindNN {
			nnIdx = append(nnIdx, i)
			continue
		}
		w := q.Window
		if q.Kind == proto.KindPoint {
			w = r.pointWindow(q.Point, q.Eps)
		}
		needed = t.neededRanges(needed[:0], w)
		if len(needed) == 0 {
			continue // provably empty answer
		}
		// Greedy cover, preferring backends already carrying a leg for this
		// batch — the whole point: a shared backend answers any number of
		// sub-queries in the same wire round trip.
		qb := owners[i]
		unroutable := false
		for _, rg := range needed {
			if holdsAny(t.table, qb, rg) {
				continue // a backend already covering this query holds it too
			}
			hs := t.holders[rg]
			pick := int32(-1)
			for _, b := range hs {
				if used[b] && r.BackendHealthy(int(b)) {
					pick = b
					break
				}
			}
			if pick < 0 {
				for x := 0; x < len(hs); x++ {
					b := hs[(rot+x)%len(hs)]
					if r.BackendHealthy(int(b)) {
						pick = b
						break
					}
				}
			}
			if pick < 0 {
				it.Err = proto.CodeUnavailable
				it.Text = errUnavailable(int(rg)).Error()
				r.metrics.unroutable.Inc()
				unroutable = true
				break
			}
			qb = append(qb, pick)
			used[pick] = true
		}
		if unroutable {
			continue
		}
		owners[i] = qb
		for _, b := range qb {
			lg := legOf[b]
			if lg == nil {
				lg = &batchLeg{b: b}
				legOf[b] = lg
				legs = append(legs, lg)
			}
			lq := *q
			if lq.Mode == proto.ModeData {
				lq.Mode = proto.ModeIDs // backends answer legs in id space
			}
			lg.qis = append(lg.qis, i)
			lg.qs = append(lg.qs, lq)
		}
	}

	// Ship the grouped legs concurrently; NN sub-queries run their per-item
	// best-first visits on the calling goroutine meanwhile.
	var wg sync.WaitGroup
	for _, lg := range legs {
		wg.Add(1)
		go func(lg *batchLeg) {
			defer wg.Done()
			r.runBatchLeg(lg, deadline)
		}(lg)
	}
	for _, i := range nnIdx {
		r.batchNN(&qs[i], &items[i], deadline)
	}
	wg.Wait()

	// Stitch: successful slots contribute their ids; any failed contribution
	// (dead leg or per-slot error) voids the sub-query's partial answer and
	// sends it to the per-item fallback instead — a partial merge would be a
	// silent hole.
	fallback := make([]bool, len(qs))
	for _, lg := range legs {
		for si, qi := range lg.qis {
			if items[qi].Err != 0 || fallback[qi] {
				continue
			}
			if lg.err != nil || lg.code[si] != 0 {
				fallback[qi] = true
				items[qi].IDs = items[qi].IDs[:0]
				continue
			}
			items[qi].IDs = append(items[qi].IDs, lg.ids[si]...)
		}
	}
	for i := range qs {
		it := &items[i]
		if it.Err != 0 {
			continue
		}
		if fallback[i] {
			r.metrics.batchFallbacks.Inc()
			r.batchFallback(&qs[i], it, deadline)
			continue
		}
		if len(owners[i]) > 1 && len(it.IDs) > 1 {
			// Multi-backend sub-query: replicas sharing a range may both
			// have reported its items; sorted dedup collapses the overlap.
			slices.Sort(it.IDs)
			it.IDs = dedupSorted(it.IDs)
		}
	}
}

// holdsAny reports whether any backend of sel holds range rg.
func holdsAny(t *table, sel []int32, rg int32) bool {
	for _, b := range sel {
		if t.holds[b][rg] {
			return true
		}
	}
	return false
}

// runBatchLeg ships one grouped leg and copies each slot's answer out of the
// pooled reply (the visit's ids alias the reply and die with it).
func (r *Router) runBatchLeg(lg *batchLeg, deadline time.Time) {
	lg.ids = make([][]uint32, len(lg.qs))
	lg.code = make([]proto.ErrCode, len(lg.qs))
	start := time.Now()
	lg.err = r.clients[lg.b].QueryBatchVisit(lg.qs, r.legDeadline(deadline), func(i int, ids []uint32, code proto.ErrCode, text string) {
		if code != 0 {
			lg.code[i] = code
			return
		}
		lg.ids[i] = append(lg.ids[i], ids...)
	})
	r.observeLeg(int(lg.b), time.Since(start), lg.err)
	r.metrics.batchLegs.Inc()
}

// batchNN answers one NN sub-query through the cluster-wide best-first
// visit, ids ascending by distance — the same shape the per-item batch loop
// produces.
func (r *Router) batchNN(q *proto.QueryMsg, it *proto.BatchItem, deadline time.Time) {
	k := int(q.K)
	if k < 1 {
		k = 1
	}
	nbs, err := r.KNearestAppendUntil(nil, q.Point, k, nil, deadline)
	if err != nil {
		it.Err, it.Text = errCodeOf(err)
		return
	}
	for _, nb := range nbs {
		it.IDs = append(it.IDs, nb.ID)
	}
}

// batchFallback re-answers one sub-query through the per-item fan-out after
// its grouped leg failed; fanIDs brings the cover/failover machinery the
// grouped path deliberately keeps thin.
func (r *Router) batchFallback(q *proto.QueryMsg, it *proto.BatchItem, deadline time.Time) {
	var err error
	switch {
	case q.Kind == proto.KindRange && q.Mode == proto.ModeFilter:
		it.IDs, err = r.FilterRangeAppendUntil(it.IDs[:0], q.Window, deadline)
	case q.Kind == proto.KindRange:
		it.IDs, err = r.RangeAppendUntil(it.IDs[:0], q.Window, deadline)
	case q.Kind == proto.KindPoint && q.Mode == proto.ModeFilter:
		it.IDs, err = r.FilterPointAppendUntil(it.IDs[:0], q.Point, deadline)
	default:
		it.IDs, err = r.PointAppendUntil(it.IDs[:0], q.Point, q.Eps, deadline)
	}
	if err != nil {
		it.IDs = it.IDs[:0]
		it.Err, it.Text = errCodeOf(err)
	}
}

// dedupSorted compacts a sorted id slice in place.
func dedupSorted(ids []uint32) []uint32 {
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// errCodeOf maps a fan-out error onto a wire code for a batch item: errors
// that carry one (routerError, a backend's ErrorMsg) keep it, anything else
// is internal. Text is clamped to the wire limit.
func errCodeOf(err error) (proto.ErrCode, string) {
	var em *proto.ErrorMsg
	if errors.As(err, &em) {
		return em.Code, clampText(em.Text)
	}
	var ec interface{ ErrCode() proto.ErrCode }
	if errors.As(err, &ec) {
		return ec.ErrCode(), clampText(err.Error())
	}
	return proto.CodeInternal, clampText(err.Error())
}

func clampText(s string) string {
	if len(s) > proto.MaxErrorText {
		return s[:proto.MaxErrorText]
	}
	return s
}
