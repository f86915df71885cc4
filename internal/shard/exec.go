package shard

import (
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// rangeWalk answers one window query on the caller's goroutine: every shard
// whose MBR intersects w is searched in shard order, appending into dst
// (and each hit's leaf segment into segs when segs is non-nil). With refine
// set each tree's serving kernel refines from the segments its leaves
// carry, testing only the MBRs that straddle the window's edge.
func (p *Pool) rangeWalk(dst []uint32, segs *[]geom.Segment, w geom.Rect, refine bool) []uint32 {
	n := 0
	for i, t := range p.trees {
		if !p.mbrs[i].Intersects(w) {
			continue
		}
		n++
		dst = t.AppendRange(dst, segs, w, refine)
	}
	p.observeFanout(n)
	return dst
}

// pointWalk is rangeWalk for a point query: shards whose MBR contains pt,
// refined by incidence within eps against every candidate's leaf segment.
func (p *Pool) pointWalk(dst []uint32, segs *[]geom.Segment, pt geom.Point, eps float64, refine bool) []uint32 {
	n := 0
	for i, t := range p.trees {
		if !p.mbrs[i].ContainsPoint(pt) {
			continue
		}
		n++
		if refine {
			dst = t.AppendPoint(dst, segs, pt, eps)
		} else {
			dst = t.AppendRange(dst, segs, geom.Rect{Min: pt, Max: pt}, false)
		}
	}
	p.observeFanout(n)
	return dst
}

// The append-first query surface: each method writes its answer into dst's
// spare capacity and returns the extended slice, so a caller that reuses its
// result buffers (the networked server's per-request scratch) pays no
// allocation on a warm query. Answers are the same set whatever the shard
// count (the equivalence quick-test pins this against a linear scan); result
// order is per-shard traversal order concatenated in shard order.

// SearchAppend appends the answer of window or point query q to dst — the
// MBR-filter candidates when q.Mode filters, the exact answer otherwise —
// and, when segs is non-nil, the segment each id was matched at to segs,
// beside it: the records of a data-mode answer, taken from the leaves the
// walk chose.
func (p *Pool) SearchAppend(dst []uint32, segs *[]geom.Segment, q proto.QueryMsg) []uint32 {
	if q.Kind == proto.KindPoint {
		return p.pointWalk(dst, segs, q.Point, q.PointEps(), !q.Mode.Filters())
	}
	return p.rangeWalk(dst, segs, q.Window, !q.Mode.Filters())
}

// FilterRangeAppend appends the candidate ids of a window query to dst.
func (p *Pool) FilterRangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.rangeWalk(dst, nil, w, false)
}

// RangeAppend appends the exact answer of a window query to dst.
func (p *Pool) RangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.rangeWalk(dst, nil, w, true)
}

// FilterPointAppend appends the candidate ids of a point query to dst.
func (p *Pool) FilterPointAppend(dst []uint32, pt geom.Point) []uint32 {
	return p.pointWalk(dst, nil, pt, 0, false)
}

// PointAppend appends the exact answer of a point query to dst.
func (p *Pool) PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32 {
	return p.pointWalk(dst, nil, pt, eps, true)
}
