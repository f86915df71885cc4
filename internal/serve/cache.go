// cache.go: the server-side result-cache path. Mobile query workloads are
// hotspot-shaped — many clients near the same junction ask nearly the same
// question — so the serving tier checks an epoch-invalidated cache
// (internal/qcache) before walking the index. Keys are cell-snapped: the
// cache stores the result over the snapped superset window and this file
// refines it down to the exact query on the way out, so a hit is
// indistinguishable from re-execution. An entry's segments are the ones the
// fill's walks matched — the engine hands them back beside the ids — so a
// hit and a miss both answer records no look-up produced.
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
//   - KindNNCell stores the k-NN candidates of the grid cell C holding the
//     query point (fillNN). With c the cell's centre, r its half-diagonal
//     and D the k-th distance from c, any p in C has its k-th distance
//     D_k(p) ≤ D + |p−c| ≤ D + r, so each of p's k nearest has an MBR
//     meeting C.Expand(D + r) and lies within D + 2r of c: the entry is
//     the filter window over C.Expand(D + r), trimmed to distance D + 2r
//     from c, sorted by that distance. refineNN walks it in order,
//     computing each candidate's distance to p exactly as the engine
//     does (unless its MBR alone is beyond the k-th best), and stops once distance-to-c − |p−c| — a lower bound on every
//     later candidate's distance to p — is strictly above the k-th best.
//     The answer is the k smallest (distance, id), the order every engine
//     answers in (rtree.Neighbor.Before), so a hit equals re-execution ids
//     and all. Every bound is widened by nnTolerance, so float rounding can
//     only grow the window or delay the stop. One entry serves every
//     unbounded k-NN in the cell at that k — a client query in ids or data
//     mode and a router's unbounded leg (ModeCandidates) alike; a leg bounded
//     by the router's running k-th distance bypasses the cache. A pool
//     with fewer than k items, or a window holding more than
//     qcache.MaxResultIDs candidates, stores no entry: that query takes the
//     engine's own k-NN.
//
// Every stored entry carries its geometry, for version consistency: the
// entry is valid at one version vector, and its records are the ones its
// ids were matched at. A fill whose views before and after disagree raced a
// write and is not stored. A window fill still answers its own query — it
// is one engine call, refined exactly — but a k-NN cell fill is two (the
// k-NN from the centre, then the window its distance sizes), which a write
// between them can leave inconsistent, so its query takes the engine's own
// k-NN instead.
package serve

import (
	"math"
	"slices"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
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

// stamp is a read reply's epoch: the hint when the request asked for it,
// else 0, which the wire does not carry.
func (s *Server) stamp(asked bool) uint64 {
	if !asked {
		return 0
	}
	return s.epochHint()
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
		key, super, ok = qcache.RangeKey(q.Window, cell, q.Mode.Filters())
	case proto.KindPoint:
		key, super, ok = qcache.PointKey(q.Point, cell)
	default:
		return nil, nil, true, badRequest("unknown query kind")
	}
	if !ok {
		s.qc.Bypass()
		return nil, nil, false, nil
	}
	if _, err := s.lookupOrFill(key, super, super, 0, sc, deadline); err != nil {
		return nil, nil, true, err
	}
	ids, segs = refineCached(key.Kind(), q, q.PointEps(), sc.cids, sc.csegs)
	return ids, segs, true, nil
}

// putEntry is the one way an answer becomes a reply item: records (ModeData,
// ModeCandidates) pair each id with the segment the engine or the cache
// entry returned beside it, every other mode takes the ids. With order set,
// the answer is an engine walk's, in tree order, and is put into the order
// contract on the way (order.go); a cache entry and a k-NN answer arrive in
// theirs.
func putEntry(it *proto.BatchItem, mode proto.Mode, ids []uint32, segs []geom.Segment, order *idSorter) {
	switch {
	case !mode.Records():
		if order != nil {
			ids = order.sortIDs(ids)
		}
		it.IDs = append(it.IDs, ids...)
	case order != nil:
		it.Recs = order.appendRecords(it.Recs, ids, segs)
	default:
		it.Recs = appendInOrder(it.Recs, ids, segs)
	}
}

// lookupOrFill is the shared hit/miss engine: build the pre view over the
// validity region, probe the cache, and on a miss gather the entry for
// super, revalidate, and store. true means sc.cids/csegs/cdists hold an
// entry that answers the query. false (with a nil error) happens only to a
// k-NN cell, and sends its query to the engine's k-NN: the fill declined,
// or it raced a write (see the file comment).
func (s *Server) lookupOrFill(key qcache.Key, region, super geom.Rect, k int, sc *reqScratch, deadline time.Time) (bool, error) {
	qcache.BuildView(s.caps.view, region, &sc.pre)
	var hit bool
	sc.cids, sc.csegs, sc.cdists, hit = s.qc.Get(key, &sc.pre, sc.cids[:0], sc.csegs[:0], sc.cdists[:0])
	if hit {
		s.noteHit()
		return true, nil
	}
	start := time.Now()
	if filled, err := s.runSuperset(key, super, k, sc, deadline); !filled {
		return false, err
	}
	s.noteMiss(time.Since(start))
	qcache.BuildView(s.caps.view, region, &sc.post)
	s.qc.Put(key, &sc.pre, &sc.post, sc.cids, sc.csegs, sc.cdists)
	return key.Kind() != qcache.KindNNCell || sc.pre.Equal(&sc.post), nil
}

// runSuperset executes the snapped superset query into sc.cids/csegs/cdists
// through the engine, records and all; false means no entry (an engine
// error, or a k-NN cell fillNN declined). An engine error fails the fill
// instead of silently storing a partial answer — a cache poisoned with a
// degraded result would keep serving it after the cluster recovered.
func (s *Server) runSuperset(key qcache.Key, super geom.Rect, k int, sc *reqScratch, deadline time.Time) (bool, error) {
	sc.cdists = sc.cdists[:0]
	if key.Kind() == qcache.KindNNCell {
		return s.fillNN(super, k, sc, deadline)
	}
	q := proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeCandidates, Window: super}
	if key.Kind() == qcache.KindRange {
		q.Mode = proto.ModeData
	}
	if err := s.search(&q, sc, deadline); err != nil {
		return false, err
	}
	// The entry is stored in the order contract, records with their ids.
	sc.recs = sc.order.appendRecords(sc.recs[:0], sc.cids, sc.csegs)
	sc.cids, sc.csegs = sc.cids[:0], sc.csegs[:0]
	for _, rec := range sc.recs {
		sc.cids, sc.csegs = append(sc.cids, rec.ID), append(sc.csegs, rec.Seg)
	}
	return true, nil
}

// nnTolerance is the slack every k-NN cell bound is widened by: far above
// the rounding of any distance up to reach computed near c (relative to
// both the distance and the coordinates' magnitude), so rounding can only
// grow a candidate window or delay an early stop, never cut a true
// neighbor.
func nnTolerance(c geom.Point, reach float64) float64 {
	return 1e-9 * (reach + math.Abs(c.X) + math.Abs(c.Y))
}

// fillNN gathers the k-NN entry of cell into sc.cids/csegs/cdists: every
// item that can be among the k nearest of a point in the cell, with its
// distance to the cell's centre, nearest the centre first (see the file
// comment). It declines — false, one bypass — when the pool holds fewer
// than k items or the candidate window more than an entry may.
func (s *Server) fillNN(cell geom.Rect, k int, sc *reqScratch, deadline time.Time) (bool, error) {
	c := cell.Center()
	r := c.Dist(cell.Max)
	var err error
	if sc.nbs, err = s.knn(sc.nbs[:0], c, k, 0, sc, deadline); err != nil {
		return false, err
	}
	if len(sc.nbs) < k {
		s.qc.Bypass()
		return false, nil
	}
	d := sc.nbs[k-1].Dist
	tol := nnTolerance(c, d+2*r)
	q := proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeCandidates, Window: cell.Expand(d + r + tol)}
	sc.csegs = sc.csegs[:0]
	if sc.cids, err = s.eng.SearchAppendUntil(sc.cids[:0], &sc.csegs, q, deadline); err != nil {
		return false, err
	}
	if len(sc.cids) > qcache.MaxResultIDs {
		s.qc.Bypass()
		return false, nil
	}
	sc.nbs = sc.nbs[:0]
	for i, id := range sc.cids {
		if dc := sc.csegs[i].DistToPoint(c); dc <= d+2*r+tol {
			sc.nbs = append(sc.nbs, rtree.Neighbor{ID: id, Dist: dc, Seg: sc.csegs[i]})
		}
	}
	slices.SortFunc(sc.nbs, func(a, b rtree.Neighbor) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		}
		return 0
	})
	sc.cids, sc.csegs = sc.cids[:0], sc.csegs[:0]
	for _, nb := range sc.nbs {
		sc.cids = append(sc.cids, nb.ID)
		sc.csegs = append(sc.csegs, nb.Seg)
		sc.cdists = append(sc.cdists, nb.Dist)
	}
	return true, nil
}

// refineNN answers a k-NN at p from the entry of the cell holding it, in
// place: ids/segs/dists arrive nearest the cell's centre first, with
// distances to the centre, and ids/segs leave as p's k smallest (distance
// to p, id), in that order. The front of the slices holds the best so far,
// sorted; a candidate is read before its slot can be written, since the
// front grows at most one slot per candidate.
func refineNN(p geom.Point, cell geom.Rect, k int, ids []uint32, segs []geom.Segment, dists []float64) ([]uint32, []geom.Segment) {
	if len(ids) == 0 {
		return ids, segs
	}
	c := cell.Center()
	pc := p.Dist(c)
	tol := nnTolerance(c, dists[len(dists)-1]+pc)
	n := 0
	for i := range ids {
		// Every later candidate is at least dists[i] from c, so at least
		// dists[i] − |p−c| from p: once that is past the k-th best, none can
		// enter or tie.
		if n == k {
			if dists[i]-pc-tol > dists[k-1] {
				break
			}
			// The box lower-bounds the segment's distance: one beyond the
			// k-th best cannot enter or tie, and costs no square root.
			if bound := dists[k-1] + tol; boxDistSq(segMBR(segs[i]), p) > bound*bound {
				continue
			}
		}
		nb, seg := rtree.Neighbor{ID: ids[i], Dist: segs[i].DistToPoint(p)}, segs[i]
		if n == k && !nb.Before(rtree.Neighbor{ID: ids[k-1], Dist: dists[k-1]}) {
			continue
		}
		j := n
		if n < k {
			n++
		} else {
			j = k - 1 // the k-th drops out
		}
		for ; j > 0 && nb.Before(rtree.Neighbor{ID: ids[j-1], Dist: dists[j-1]}); j-- {
			ids[j], segs[j], dists[j] = ids[j-1], segs[j-1], dists[j-1]
		}
		ids[j], segs[j], dists[j] = nb.ID, seg, nb.Dist
	}
	return ids[:n], segs[:n]
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

// boxDistSq is the squared distance from p to box r (zero inside it).
func boxDistSq(r geom.Rect, p geom.Point) float64 {
	dx := max(r.Min.X-p.X, p.X-r.Max.X, 0)
	dy := max(r.Min.Y-p.Y, p.Y-r.Max.Y, 0)
	return dx*dx + dy*dy
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
			if q.Mode.Filters() || sg.ContainsPoint(pt, eps) {
				ids[n], segs[n] = ids[i], sg
				n++
			}
		}
	}
	return ids[:n], segs[:n]
}
