// cache.go: the server-side result-cache path. Mobile query workloads are
// hotspot-shaped — many clients near the same junction ask nearly the same
// question — so the serving tier checks an epoch-invalidated cache
// (internal/qcache) before walking the index. Keys are cell-snapped: the
// cache stores the result over the snapped superset window and this file
// refines it down to the exact query on the way out, so a hit is
// indistinguishable from re-execution.
//
// Soundness of each refinement, against the uncached executor:
//
//   - KindRange stores RangeAppend(snap) — segments intersecting the snapped
//     window. snap ⊇ window, and segment∩window ⇒ segment∩snap, so keeping
//     exactly the segments with IntersectsRect(window) reproduces
//     RangeAppend(window). The entry is stored ascending by id (order.go),
//     and filtering keeps that order, so a hit leaves in the order an
//     uncached answer is sorted into.
//   - KindRangeFilter stores FilterRangeAppend(snap) — candidate ids whose
//     MBR intersects the snapped window — refined with MBR.Intersects(window).
//   - KindCell stores FilterRangeAppend(cell) for the one grid cell holding
//     the query point, and serves every point-query mode: the uncached exact
//     path is MBR-contains-point then segment-distance ≤ eps, the filter path
//     is MBR-contains-point alone, and both predicates imply MBR∩cell for any
//     point inside the cell. eps is applied here, at refinement, which is why
//     it is not in the key.
//   - KindNN stores the exact k-nearest answer (ids, distances, geometry)
//     for the exact point: no refinement at all. One entry serves every
//     unbounded k-NN at that point and k — a client query in ids or data
//     mode and a router's unbounded leg (ModeNeighbors) alike; a leg bounded
//     by the router's running k-th distance bypasses the cache.
//
// Every stored entry also carries its geometry, for version consistency: the
// entry is valid at one version vector, and segments resolved through the
// pool at hit time could belong to a later write than the ids do.
package serve

import (
	"math"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
)

// nnRegion is the validity region of a nearest-neighbor query: NN searches
// have no window, so every non-empty shard participates in the view.
var nnRegion = geom.Rect{
	Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
	Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)},
}

// epochHint fingerprints the live index state for reply stamping; 0 when the
// server has no validity view (distributed pools).
func (s *Server) epochHint() uint64 {
	if s.caps.view == nil {
		return 0
	}
	return qcache.HintOf(s.caps.view)
}

// CacheStats returns the query-result cache counters; the zero Stats when
// caching is disabled.
func (s *Server) CacheStats() qcache.Stats {
	if s.qc == nil {
		return qcache.Stats{}
	}
	return s.qc.Stats()
}

// CacheSavedSeconds returns the server execution time the cache has saved so
// far: each hit credited one mean miss execution. It is seconds, not Joules —
// the paper gives the wall-powered server no energy budget to save from
// (§5.3).
func (s *Server) CacheSavedSeconds() float64 {
	return float64(s.savedNanos.Load()) / 1e9
}

// noteMiss feeds one superset execution into the mean-miss-cost estimate.
func (s *Server) noteMiss(d time.Duration) {
	s.missNanos.Add(int64(d))
	s.missCount.Add(1)
}

// noteHit credits one hit with the current mean miss cost and republishes
// the saved-time gauge.
func (s *Server) noteHit() {
	n := s.missCount.Load()
	if n == 0 {
		return
	}
	saved := s.savedNanos.Add(s.missNanos.Load() / n)
	s.metrics.cacheSavedSec.Set(float64(saved) / 1e9)
}

// runQueryCached answers one point or range query through the cache.
// handled=false means the query shape is uncacheable (the caller falls
// through to the uncached path); otherwise ids (and the aligned segs) are
// the exact refined answer. Returned slices alias sc's cache buffers and are
// valid until the scratch is reused. A k-NN reads its entry in readNN.
func (s *Server) runQueryCached(q *proto.QueryMsg, sc *reqScratch, deadline time.Time) (ids []uint32, segs []geom.Segment, handled bool, err error) {
	var (
		key   qcache.Key
		super geom.Rect
		ok    bool
		cell  = s.qc.CellSize()
	)
	switch q.Kind {
	case proto.KindRange:
		key, super, ok = qcache.RangeKey(q.Window, cell, q.Mode == proto.ModeFilter)
	case proto.KindPoint:
		key, super, ok = qcache.PointKey(q.Point, cell)
	default:
		return nil, nil, true, badRequest("unknown query kind")
	}
	if !ok {
		s.qc.Bypass()
		return nil, nil, false, nil
	}
	if err := s.lookupOrFill(key, super, q.Point, 0, sc, deadline); err != nil {
		return nil, nil, true, err
	}
	eps := q.Eps
	if eps <= 0 {
		eps = DefaultPointEps
	}
	ids, segs = refineCached(key.Kind(), q, eps, sc.cids, sc.csegs)
	return ids, segs, true, nil
}

// putEntry shapes a cached answer into it by mode: records keep the entry's
// geometry, valid at the version its ids were (no per-id SegOf on the hit
// path), and neighbors its distances.
func putEntry(it *proto.BatchItem, mode proto.Mode, ids []uint32, segs []geom.Segment, dists []float64) {
	switch mode {
	case proto.ModeData:
		for i, id := range ids {
			it.Recs = append(it.Recs, proto.Record{ID: id, Seg: segs[i]})
		}
	case proto.ModeNeighbors:
		for i, id := range ids {
			it.Nbrs = append(it.Nbrs, proto.Neighbor{ID: id, Dist: dists[i]})
		}
	default:
		it.IDs = append(it.IDs, ids...)
	}
}

// lookupOrFill is the shared hit/miss engine: build the pre view, probe the
// cache, and on a miss execute the superset, revalidate, and store. On a nil
// return sc.cids/csegs/cdists hold the superset payload.
func (s *Server) lookupOrFill(key qcache.Key, region geom.Rect, pt geom.Point, k int, sc *reqScratch, deadline time.Time) error {
	qcache.BuildView(s.caps.view, region, &sc.pre)
	var hit bool
	sc.cids, sc.csegs, sc.cdists, hit = s.qc.Get(key, &sc.pre, sc.cids[:0], sc.csegs[:0], sc.cdists[:0])
	if hit {
		s.noteHit()
		return nil
	}
	start := time.Now()
	if err := s.runSuperset(key, region, pt, k, sc, deadline); err != nil {
		return err
	}
	s.noteMiss(time.Since(start))
	qcache.BuildView(s.caps.view, region, &sc.post)
	s.qc.Put(key, &sc.pre, &sc.post, sc.cids, sc.csegs, sc.cdists)
	return nil
}

// runSuperset executes the snapped superset query into sc.cids/csegs/cdists
// through the engine. An engine error fails the fill instead of silently
// storing a partial answer — a cache poisoned with a degraded result would
// keep serving it after the cluster recovered.
func (s *Server) runSuperset(key qcache.Key, super geom.Rect, pt geom.Point, k int, sc *reqScratch, deadline time.Time) error {
	sc.cids, sc.csegs, sc.cdists = sc.cids[:0], sc.csegs[:0], sc.cdists[:0]
	var err error
	switch key.Kind() {
	case qcache.KindRange:
		sc.cids, err = s.eng.RangeAppendUntil(sc.cids, super, deadline)
	case qcache.KindRangeFilter, qcache.KindCell:
		sc.cids, err = s.eng.FilterRangeAppendUntil(sc.cids, super, deadline)
	case qcache.KindNN:
		sc.nbs, err = s.knn(sc.nbs[:0], pt, k, 0, sc, deadline)
		for _, nb := range sc.nbs {
			sc.cids = append(sc.cids, nb.ID)
			sc.cdists = append(sc.cdists, nb.Dist)
		}
	}
	if err != nil {
		return err
	}
	if key.Kind() != qcache.KindNN {
		sc.cids = sc.order.sortIDs(sc.cids)
	}
	for _, id := range sc.cids {
		sc.csegs = append(sc.csegs, s.cfg.Pool.SegOf(id))
	}
	return nil
}

// segMBR is Segment.MBR with plain comparisons. math.Min/Max carry NaN/±0
// semantics the refinement loop does not need, are not inlined, and at
// cache-hit rates they dominate the whole hit path (profiled at ~30%).
func segMBR(sg geom.Segment) geom.Rect {
	r := geom.Rect{Min: sg.A, Max: sg.B}
	if r.Max.X < r.Min.X {
		r.Min.X, r.Max.X = r.Max.X, r.Min.X
	}
	if r.Max.Y < r.Min.Y {
		r.Min.Y, r.Max.Y = r.Max.Y, r.Min.Y
	}
	return r
}

// refineCached filters the superset payload down to the exact query in
// place, preserving order.
func refineCached(kind qcache.Kind, q *proto.QueryMsg, eps float64, ids []uint32, segs []geom.Segment) ([]uint32, []geom.Segment) {
	n := 0
	w := q.Window
	pt := q.Point
	switch kind {
	case qcache.KindRange:
		for i, sg := range segs {
			// MBR screen first: a superset segment is usually wholly inside
			// the window (accept: both endpoints in ⇒ intersects) or wholly
			// outside (reject); only boundary straddlers pay the exact test.
			mbr := segMBR(sg)
			if mbr.Max.X < w.Min.X || mbr.Min.X > w.Max.X || mbr.Max.Y < w.Min.Y || mbr.Min.Y > w.Max.Y {
				continue
			}
			inside := mbr.Min.X >= w.Min.X && mbr.Max.X <= w.Max.X &&
				mbr.Min.Y >= w.Min.Y && mbr.Max.Y <= w.Max.Y
			if inside || sg.IntersectsRect(w) {
				ids[n], segs[n] = ids[i], sg
				n++
			}
		}
	case qcache.KindRangeFilter:
		for i, sg := range segs {
			mbr := segMBR(sg)
			if mbr.Max.X < w.Min.X || mbr.Min.X > w.Max.X || mbr.Max.Y < w.Min.Y || mbr.Min.Y > w.Max.Y {
				continue
			}
			ids[n], segs[n] = ids[i], sg
			n++
		}
	case qcache.KindCell:
		for i, sg := range segs {
			mbr := segMBR(sg)
			if pt.X < mbr.Min.X || pt.X > mbr.Max.X || pt.Y < mbr.Min.Y || pt.Y > mbr.Max.Y {
				continue
			}
			// Exact incidence in the uncached path's order: the tree search
			// filters by MBR∋pt, then distance ≤ eps refines — unless the
			// query only wants the MBR filter.
			if q.Mode == proto.ModeFilter || sg.ContainsPoint(pt, eps) {
				ids[n], segs[n] = ids[i], sg
				n++
			}
		}
	}
	return ids[:n], segs[:n]
}
