// exec.go is the routed read path, the same five steps for one query and for
// a client batch of N: plan (the ranges each sub-query can match; a k-NN
// sub-query's nearest range) → cover (one healthy holder per range, grouped
// into one leg per backend) → legs (concurrent, first on the caller) →
// failover (a failed leg's ranges go back to the next cover round) → merge
// (a linear merge of ascending answers where two legs answer one sub-query;
// a k-NN sub-query goes on from its first answer in nn.go). A single query
// is a batch of one; only the frame a leg travels in differs, and every k-NN
// leg is a batch item.
package router

import (
	"slices"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

// deadlineOr substitutes the default whole-query budget for a zero
// deadline.
func (r *Router) deadlineOr(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return time.Now().Add(proto.DefaultTimeout)
	}
	return deadline
}

// legDeadline caps one leg at LegTimeout from now, never past the query
// deadline — the deadline is inherited downward, not re-applied per hop.
func (r *Router) legDeadline(deadline time.Time) time.Time {
	ld := time.Now().Add(r.cfg.LegTimeout)
	if deadline.Before(ld) {
		return deadline
	}
	return ld
}

// The states of one needed range in fanScratch.covered, besides the id of
// the backend whose leg is answering it this round.
const (
	uncovered int32 = -1 // no leg assigned, or the assigned one failed
	answered  int32 = -2 // a successful leg covered it
)

// readLeg is one backend's share of one round: a slot per sub-query with a
// range the backend covers, and the slots' answers copied out of the pooled
// reply.
type readLeg struct {
	qis   []int32          // slot → sub-query index
	qs    []proto.QueryMsg // slot → leg query (ModeData rewritten to ModeIDs, k-NN to ModeNeighbors)
	ids   []uint32         // the slots' id answers, concatenated
	nbrs  []proto.Neighbor // the k-NN slots' answers, concatenated
	ends  []int32          // slot s answers ids[ends[s-1]:ends[s]]
	nends []int32          // and nbrs[nends[s-1]:nends[s]]
	code  []proto.ErrCode  // slot → backend-reported error, 0 = none
}

// reset empties the leg for a new round, keeping every slice's capacity.
func (lg *readLeg) reset() {
	*lg = readLeg{
		qis: lg.qis[:0], qs: lg.qs[:0], ids: lg.ids[:0], nbrs: lg.nbrs[:0],
		ends: lg.ends[:0], nends: lg.nends[:0], code: lg.code[:0],
	}
}

// answer returns slot s's ids and neighbors.
func (lg *readLeg) answer(s int) ([]uint32, []proto.Neighbor) {
	lo, nlo := int32(0), int32(0)
	if s > 0 {
		lo, nlo = lg.ends[s-1], lg.nends[s-1]
	}
	return lg.ids[lo:lg.ends[s]], lg.nbrs[nlo:lg.nends[s]]
}

// legSender ships one readLeg to its backend and fills ids, nbrs, ends,
// nends and code.
type legSender func(cc *client.Client, lg *readLeg, deadline time.Time) error

// sendQuery ships a single range or point query's leg as MsgQuery.
func sendQuery(cc *client.Client, lg *readLeg, deadline time.Time) error {
	q := &lg.qs[0]
	var err error
	if q.Kind == proto.KindRange {
		lg.ids, err = cc.RangeAppendUntil(lg.ids, q.Window, q.Mode, deadline)
	} else {
		lg.ids, err = cc.PointAppendUntil(lg.ids, q.Point, q.Eps, q.Mode, deadline)
	}
	lg.ends, lg.nends, lg.code = append(lg.ends, int32(len(lg.ids))), append(lg.nends, 0), append(lg.code, 0)
	return err
}

// sendBatch ships a leg as one MsgBatchQuery, however many sub-queries the
// backend answers: a client batch's leg, and every k-NN leg.
func sendBatch(cc *client.Client, lg *readLeg, deadline time.Time) error {
	return cc.QueryBatchVisit(lg.qs, deadline, func(_ int, it *proto.BatchItem) {
		lg.ids, lg.nbrs = append(lg.ids, it.IDs...), append(lg.nbrs, it.Nbrs...) // it aliases the pooled reply
		lg.ends, lg.nends = append(lg.ends, int32(len(lg.ids))), append(lg.nends, int32(len(lg.nbrs)))
		lg.code = append(lg.code, it.Err)
	})
}

// shipRead is route's leg function: leg li of the round through the call's
// sender, capped by the call's deadline.
func shipRead(r *Router, sc *fanScratch, li int) error {
	return sc.send(r.clients[sc.sel[li]], &sc.legs[li], r.legDeadline(sc.deadline))
}

// route answers the sub-queries of qs into items, ids only (neighbors for a
// ModeNeighbors sub-query), and returns the number of legs it took. A slot
// arriving with Err set was rejected by the serve layer and is left alone.
// A k-NN sub-query plans one range, its nearest: the slot asks that range's
// holder for the unbounded k nearest of its whole pool (ModeNeighbors, which
// only a batch frame carries: a call holding a k-NN sends with sendBatch), in
// a leg the round is already sending when a holder has one. After the rounds,
// the best-first visit (nn.go) goes on from each such answer on the calling
// goroutine, and takes no leg when the answer proves itself: every range
// its backend does not hold lies beyond the k-th distance.
//
// Correctness of the merge: a backend answers a leg query over its whole
// local pool, so one leg answers every range the backend holds, and two
// backends sharing a range may both report its items — mergeIDs collapses
// the overlap. Completeness: every item matching a
// sub-query lies in some range whose MBR intersects its window, that range
// is in the needed set, and the sub-query completes only when each needed
// range was covered by a successful leg of one of its holders. A sub-query
// with a range no healthy backend holds fails CodeUnavailable, alone.
func (r *Router) route(sc *fanScratch, qs []proto.QueryMsg, items []proto.BatchItem, deadline time.Time, send legSender) int {
	// One snapshot for the whole call: every sub-query is planned against
	// the same assignment and growth overlay even if a refresh swaps them
	// mid-flight.
	t := r.snap()
	sc.send, sc.deadline = send, deadline
	sc.needed, sc.covered, sc.qoff = sc.needed[:0], sc.covered[:0], append(sc.qoff[:0], 0)
	sc.open = append(sc.open[:0], make([]bool, t.numRanges)...)
	sc.nnStarts = sc.nnStarts[:0]
	for i := range qs {
		switch q := &qs[i]; {
		case items[i].Err != 0: // pre-rejected: nothing to plan
		case q.Kind == proto.KindNN:
			sc.needed = append(sc.needed, t.nearestRange(q.Point))
		case q.Kind == proto.KindPoint:
			sc.needed = t.neededRanges(sc.needed, pointWindow(q.Point, q.Eps))
		default:
			sc.needed = t.neededRanges(sc.needed, q.Window)
		}
		for len(sc.covered) < len(sc.needed) {
			sc.covered = append(sc.covered, uncovered)
		}
		sc.qoff = append(sc.qoff, int32(len(sc.needed)))
	}

	nLegs := 0
	for {
		r.cover(t.table, sc, qs, items)
		if len(sc.sel) == 0 {
			break // every needed range was answered by an earlier round
		}
		r.runLegs(sc, shipRead)
		nLegs += len(sc.sel)

		// A slot that answered contributes its ids (a k-NN slot: its
		// neighbors, held in the item until the visit goes on) and closes
		// the ranges its backend covered for that sub-query; one that did
		// not — the leg died, or the backend failed that slot — puts the
		// backend out for the rest of the call and hands the ranges to the
		// next round.
		failover := false
		for li, b := range sc.sel {
			lg := &sc.legs[li]
			for s, qi := range lg.qis {
				state := uncovered
				if sc.errs[li] == nil && lg.code[s] == 0 {
					ids, nbrs := lg.answer(s)
					if qs[qi].Kind == proto.KindNN {
						items[qi].Nbrs = append(items[qi].Nbrs[:0], nbrs...)
						sc.nnStarts = append(sc.nnStarts, nnStart{qi: qi, b: b})
					} else {
						items[qi].IDs = mergeIDs(items[qi].IDs, ids)
					}
					state = answered
				} else {
					sc.failed[b], failover = true, true
				}
				for j := sc.qoff[qi]; j < sc.qoff[qi+1]; j++ {
					if sc.covered[j] == b {
						sc.covered[j] = state
					}
				}
			}
		}
		if !failover {
			break
		}
		r.metrics.failovers.Inc()
	}

	for _, f := range sc.nnStarts {
		nLegs += r.finishNN(sc, t, &qs[f.qi], &items[f.qi], f.b, deadline)
	}
	return nLegs
}

// mergeIDs adds one leg's answer to a sub-query's. Both are ascending, each id
// once — every backend answers in that order — and so is the result: a
// linear merge, from the back so it needs no second buffer, that keeps one
// copy of an id two backends sharing a range both report.
func mergeIDs(ids, leg []uint32) []uint32 {
	if len(ids) == 0 || len(leg) == 0 {
		return append(ids, leg...)
	}
	i, j := len(ids)-1, len(leg)-1
	ids = append(ids, leg...)
	for k := len(ids) - 1; j >= 0; k-- {
		if i >= 0 && ids[i] > leg[j] {
			ids[k], i = ids[i], i-1
		} else {
			ids[k], j = leg[j], j-1
		}
	}
	return slices.Compact(ids)
}

// cover assigns every uncovered range of every live sub-query to a usable
// holder and groups the assignments into this round's legs, sc.sel and
// sc.legs: one leg per backend, one slot in it per sub-query it covers a
// range of. A sub-query with a range no usable backend holds is failed
// CodeUnavailable and takes no further part.
func (r *Router) cover(t *table, sc *fanScratch, qs []proto.QueryMsg, items []proto.BatchItem) {
	sc.sel = sc.sel[:0]
	sc.rot = int(r.rr.Add(1))
	for i := range qs {
		lo, hi := sc.qoff[i], sc.qoff[i+1]
		for j := lo; j < hi; j++ {
			sc.open[sc.needed[j]] = sc.covered[j] == uncovered
		}
		for j := lo; j < hi; j++ {
			if sc.covered[j] != uncovered {
				continue
			}
			pick := r.pick(t, sc, sc.needed[j])
			if pick < 0 {
				// Void the whole sub-query: a partial answer would be a
				// silent hole.
				for x := lo; x < hi; x++ {
					sc.covered[x] = answered
				}
				items[i].IDs = items[i].IDs[:0]
				items[i].Err, items[i].Text = proto.CodeOf(errUnavailable(int(sc.needed[j])))
				r.metrics.unroutable.Inc()
				break
			}
			// The picked backend answers every range it holds in the same
			// leg; claim the sub-query's other uncovered ranges too.
			for x := j; x < hi; x++ {
				if sc.covered[x] == uncovered && t.holds[pick][sc.needed[x]] {
					sc.covered[x], sc.open[sc.needed[x]] = pick, false
				}
			}
		}
		for j := lo; j < hi; j++ {
			sc.open[sc.needed[j]] = false
			if b := sc.covered[j]; b >= 0 {
				sc.addSlot(b, int32(i), &qs[i])
			}
		}
	}
}

// usable reports whether backend b may take a leg of this call: it has not
// failed one, and its breaker admits traffic.
func (r *Router) usable(sc *fanScratch, b int32) bool {
	return !sc.failed[b] && r.BackendHealthy(int(b))
}

// pick is the one holder-choice rule of the read path: the backend to answer
// range rg for a query whose still-open ranges are sc.open. A holder already
// carrying a leg this round when there is one (the leg answers all of the
// backend's ranges, for all of a batch's sub-queries), else the usable holder
// that holds the most open ranges — a read spanning two ranges one backend
// co-holds takes one leg — with the round's rotation (sc.rot, seeded once per
// cover round and kept by the k-NN visits that go on from it) breaking ties,
// which is the read spreading across replicas. -1 means no holder is usable.
func (r *Router) pick(t *table, sc *fanScratch, rg int32) int32 {
	hs := t.holders[rg]
	for _, b := range hs {
		if slices.Contains(sc.sel, b) && r.usable(sc, b) {
			return b
		}
	}
	best, most := int32(-1), 0
	for i := range hs {
		b := hs[(sc.rot+i)%len(hs)]
		if !r.usable(sc, b) {
			continue
		}
		n := 0
		for x, open := range sc.open {
			if open && t.holds[b][x] {
				n++
			}
		}
		if n > most {
			best, most = b, n
		}
	}
	return best
}

// addSlot gives sub-query qi a slot in backend b's leg of this round,
// opening the leg if b has none yet; a sub-query takes one slot per leg
// however many of its ranges the backend covers.
func (sc *fanScratch) addSlot(b, qi int32, q *proto.QueryMsg) {
	li := slices.Index(sc.sel, b)
	if li < 0 {
		li = len(sc.sel)
		sc.sel = append(sc.sel, b)
		if li == len(sc.legs) {
			sc.legs = append(sc.legs, readLeg{})
		}
		sc.legs[li].reset()
	}
	lg := &sc.legs[li]
	if n := len(lg.qis); n > 0 && lg.qis[n-1] == qi {
		return
	}
	lg.qis, lg.qs = append(lg.qis, qi), append(lg.qs, *q)
	switch lq := &lg.qs[len(lg.qs)-1]; {
	case lq.Kind == proto.KindNN:
		// The visit goes on by distance. A first leg is unbounded: a
		// client's Eps means nothing on a k-NN, and read as a bound it would
		// truncate the answer that closes the backend's ranges.
		lq.Mode, lq.Eps = proto.ModeNeighbors, 0
	case lq.Mode == proto.ModeData:
		lq.Mode = proto.ModeIDs // backends answer legs in id space
	}
}

// pointWindow is the routing window of a point query: the point expanded by
// its tolerance. The backend applies the exact predicate; the expansion only
// selects the ranges that can hold a match, under the tolerance the backend
// will use.
func pointWindow(pt geom.Point, eps float64) geom.Rect {
	if eps <= 0 {
		eps = proto.DefaultPointEps
	}
	return geom.Rect{Min: pt, Max: pt}.Expand(eps)
}

// routeOne answers one query as a batch of one into sc.item[0], its legs
// sent by send, and returns the error the item carries.
func (r *Router) routeOne(sc *fanScratch, q proto.QueryMsg, deadline time.Time, send legSender) error {
	sc.q[0], sc.item[0] = q, proto.BatchItem{IDs: sc.item[0].IDs[:0], Nbrs: sc.item[0].Nbrs[:0]}
	nLegs := r.route(sc, sc.q[:], sc.item[:], r.deadlineOr(deadline), send)
	r.metrics.fanout.Observe(float64(nLegs))
	if it := &sc.item[0]; it.Err != 0 {
		return &routerError{code: it.Err, msg: it.Text}
	}
	return nil
}

// fanOne answers one range or point query, its legs MsgQuery, appending the
// ids to dst.
func (r *Router) fanOne(dst []uint32, q proto.QueryMsg, deadline time.Time) ([]uint32, error) {
	sc := r.getScratch()
	defer r.putScratch(sc)
	if err := r.routeOne(sc, q, deadline, sendQuery); err != nil {
		return dst, err
	}
	return append(dst, sc.item[0].IDs...), nil
}

// The serve.DeadlineExecutor surface — the only forms the serve layer
// drives on a Router.

// RangeAppendUntil answers a refined window query across the cluster.
func (r *Router) RangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error) {
	return r.fanOne(dst, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w}, deadline)
}

// FilterRangeAppendUntil answers a filter (candidate-set) window query.
func (r *Router) FilterRangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error) {
	return r.fanOne(dst, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w}, deadline)
}

// PointAppendUntil answers a refined point query with tolerance eps (0 =
// proto.DefaultPointEps).
func (r *Router) PointAppendUntil(dst []uint32, pt geom.Point, eps float64, deadline time.Time) ([]uint32, error) {
	return r.fanOne(dst, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt, Eps: eps}, deadline)
}

// FilterPointAppendUntil answers a filter point query.
func (r *Router) FilterPointAppendUntil(dst []uint32, pt geom.Point, deadline time.Time) ([]uint32, error) {
	return r.fanOne(dst, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeFilter, Point: pt}, deadline)
}

// The plain serve.Executor surface: these four and NearestWith/KNearestAppend
// in nn.go. They have no error channel, so a fan-out failure is swallowed
// (`dst, _ =`) and degrades to the empty or partial answer. Nothing in
// internal/serve can reach them — a Server drives a Router only through the
// deadline forms above, and serve.New rejects a fan-out pool that lacks them —
// they are kept only so a Router satisfies serve.Executor, the type of
// serve.Config.Pool and of the bench ladder's executor rungs.

// FilterRangeAppend implements serve.Executor.
func (r *Router) FilterRangeAppend(dst []uint32, w geom.Rect) []uint32 {
	dst, _ = r.FilterRangeAppendUntil(dst, w, time.Time{})
	return dst
}

// FilterPointAppend implements serve.Executor.
func (r *Router) FilterPointAppend(dst []uint32, pt geom.Point) []uint32 {
	dst, _ = r.FilterPointAppendUntil(dst, pt, time.Time{})
	return dst
}

// RangeAppend implements serve.Executor.
func (r *Router) RangeAppend(dst []uint32, w geom.Rect) []uint32 {
	dst, _ = r.RangeAppendUntil(dst, w, time.Time{})
	return dst
}

// PointAppend implements serve.Executor.
func (r *Router) PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32 {
	dst, _ = r.PointAppendUntil(dst, pt, eps, time.Time{})
	return dst
}
