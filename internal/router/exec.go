// exec.go is the range/point fan-out: relevant ranges → greedy replica
// cover → concurrent legs → failover rounds → sorted dedup merge.
package router

import (
	"slices"
	"sync"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

// deadlineOr substitutes the default whole-query budget for a zero
// deadline.
func (r *Router) deadlineOr(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return time.Now().Add(queryTimeout)
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

// legFunc is one backend sub-query: append the backend's matching ids to
// dst under the leg deadline.
type legFunc func(cc *client.Client, dst []uint32, legDeadline time.Time) ([]uint32, error)

// fanIDs is the shared range/point fan-out. w is the routing window (the
// query window, or the eps-expanded point); leg runs the actual sub-query.
//
// Correctness of the merge: each selected backend answers over its whole
// local pool, so a backend holding several needed ranges answers them all
// in one leg, and two backends sharing a range may both report its items —
// the sorted dedup collapses the overlap. Completeness: every item matching
// the query lies in some range whose MBR intersects w, that range is in the
// needed set, and the cover guarantees a successful leg from one of its
// holders.
func (r *Router) fanIDs(dst []uint32, w geom.Rect, deadline time.Time, leg legFunc) ([]uint32, error) {
	deadline = r.deadlineOr(deadline)
	sc := r.getScratch()
	defer r.putScratch(sc)

	// One snapshot for the whole query: every routing decision below sees
	// a consistent assignment and growth overlay even if a refresh swaps
	// them mid-flight.
	t := r.snap()
	sc.needed = t.neededRanges(sc.needed[:0], w)
	if len(sc.needed) == 0 {
		return dst, nil
	}
	sc.covered = sc.covered[:0]
	for range sc.needed {
		sc.covered = append(sc.covered, -1)
	}
	sc.merged = sc.merged[:0]

	nLegs := 0
	for {
		if err := r.cover(t.table, sc); err != nil {
			r.metrics.unroutable.Inc()
			return dst, err
		}
		if len(sc.sel) == 0 {
			break // every needed range answered by an earlier round
		}
		// Run the round's legs concurrently, each into its own buffer; the
		// first leg runs on the calling goroutine.
		sc.legIDs = extendBufs(sc.legIDs, len(sc.sel))
		runLeg := func(li int, b int32) {
			start := time.Now()
			ids, err := leg(r.clients[b], sc.legIDs[li][:0], r.legDeadline(deadline))
			sc.legIDs[li] = ids
			sc.errs[b] = err
			r.observeLeg(int(b), time.Since(start), err)
		}
		var wg sync.WaitGroup
		for li := 1; li < len(sc.sel); li++ {
			wg.Add(1)
			go func(li int, b int32) {
				defer wg.Done()
				runLeg(li, b)
			}(li, sc.sel[li])
		}
		runLeg(0, sc.sel[0])
		wg.Wait()
		nLegs += len(sc.sel)

		// Successful legs contribute their answers; failed legs hand their
		// ranges back for the next round's cover (the failed backend is
		// excluded from it).
		failover := false
		for li, b := range sc.sel {
			if sc.errs[b] == nil {
				sc.merged = append(sc.merged, sc.legIDs[li]...)
				continue
			}
			failover = true
			sc.failed[b] = true
			for j := range sc.needed {
				if sc.covered[j] == b {
					sc.covered[j] = -1
				}
			}
		}
		if !failover {
			break
		}
		r.metrics.failovers.Inc()
	}
	r.metrics.fanout.Observe(float64(nLegs))

	if len(sc.merged) == 0 {
		return dst, nil
	}
	slices.Sort(sc.merged)
	dst = append(dst, sc.merged[0])
	for _, id := range sc.merged[1:] {
		if id != dst[len(dst)-1] {
			dst = append(dst, id)
		}
	}
	return dst, nil
}

// cover assigns every uncovered needed range to a healthy holder and
// collects the distinct backends into sc.sel. Holders already selected for
// another range are preferred (one leg answers all of a backend's ranges);
// otherwise the choice rotates across replicas — the read spreading.
func (r *Router) cover(t *table, sc *fanScratch) error {
	sc.sel = sc.sel[:0]
	rot := int(r.rr.Add(1))
	for j, rg := range sc.needed {
		if sc.covered[j] >= 0 {
			continue
		}
		hs := t.holders[rg]
		pick := int32(-1)
		for _, b := range hs {
			if !sc.failed[b] && r.BackendHealthy(int(b)) && containsBackend(sc.sel, b) {
				pick = b
				break
			}
		}
		if pick < 0 {
			for i := 0; i < len(hs); i++ {
				b := hs[(rot+i)%len(hs)]
				if !sc.failed[b] && r.BackendHealthy(int(b)) {
					pick = b
					break
				}
			}
		}
		if pick < 0 {
			return errUnavailable(int(rg))
		}
		sc.covered[j] = pick
		if !containsBackend(sc.sel, pick) {
			sc.sel = append(sc.sel, pick)
		}
		// The picked backend answers every range it holds in the same leg;
		// claim its other uncovered ranges too.
		for j2 := j + 1; j2 < len(sc.needed); j2++ {
			if sc.covered[j2] < 0 && t.holds[pick][sc.needed[j2]] {
				sc.covered[j2] = pick
			}
		}
	}
	return nil
}

func containsBackend(sel []int32, b int32) bool {
	for _, s := range sel {
		if s == b {
			return true
		}
	}
	return false
}

// extendBufs grows a slice-of-buffers to n entries, reusing capacity.
func extendBufs(bufs [][]uint32, n int) [][]uint32 {
	for len(bufs) < n {
		bufs = append(bufs, nil)
	}
	return bufs[:n]
}

// pointWindow is the routing window of a point query: the point expanded by
// its tolerance (the backend applies the exact predicate; the expansion
// only selects relevant ranges, so it must be at least the backend's own
// eps default).
func (r *Router) pointWindow(pt geom.Point, eps float64) geom.Rect {
	if eps <= 0 {
		eps = r.cfg.PointEps
	}
	return geom.Rect{Min: pt, Max: pt}.Expand(eps)
}

// The serve.DeadlineExecutor surface — the only forms the serve layer
// drives on a Router.

// RangeAppendUntil answers a refined window query across the cluster.
func (r *Router) RangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error) {
	return r.fanIDs(dst, w, deadline, func(cc *client.Client, dst []uint32, ld time.Time) ([]uint32, error) {
		return cc.RangeAppendUntil(dst, w, proto.ModeIDs, ld)
	})
}

// FilterRangeAppendUntil answers a filter (candidate-set) window query.
func (r *Router) FilterRangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error) {
	return r.fanIDs(dst, w, deadline, func(cc *client.Client, dst []uint32, ld time.Time) ([]uint32, error) {
		return cc.RangeAppendUntil(dst, w, proto.ModeFilter, ld)
	})
}

// PointAppendUntil answers a refined point query with tolerance eps (0 =
// backend default).
func (r *Router) PointAppendUntil(dst []uint32, pt geom.Point, eps float64, deadline time.Time) ([]uint32, error) {
	return r.fanIDs(dst, r.pointWindow(pt, eps), deadline, func(cc *client.Client, dst []uint32, ld time.Time) ([]uint32, error) {
		return cc.PointAppendUntil(dst, pt, eps, proto.ModeIDs, ld)
	})
}

// FilterPointAppendUntil answers a filter point query.
func (r *Router) FilterPointAppendUntil(dst []uint32, pt geom.Point, deadline time.Time) ([]uint32, error) {
	return r.fanIDs(dst, r.pointWindow(pt, 0), deadline, func(cc *client.Client, dst []uint32, ld time.Time) ([]uint32, error) {
		return cc.PointAppendUntil(dst, pt, 0, proto.ModeFilter, ld)
	})
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
