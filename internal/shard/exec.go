package shard

import (
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// rangeWalk answers one window query on the caller's goroutine: every shard
// whose MBR intersects w is searched in shard order, appending into dst.
// With refine set each tree's serving kernel runs with the exact test fused
// in, so a segment is loaded only when its MBR straddles the window's edge.
func (p *Pool) rangeWalk(dst []uint32, w geom.Rect, refine bool) []uint32 {
	var exact func(uint32) bool
	if refine {
		exact = func(id uint32) bool { return p.ds.Seg(id).IntersectsRect(w) }
	}
	n := 0
	for i, t := range p.trees {
		if !p.mbrs[i].Intersects(w) {
			continue
		}
		n++
		dst = t.AppendRange(dst, w, exact)
	}
	p.observeFanout(n)
	return dst
}

// pointWalk is rangeWalk for a point query: shards whose MBR contains pt,
// refined by incidence within eps. The refinement compacts candidates in
// place — hits are written back over the candidate region — so no second
// buffer is needed.
func (p *Pool) pointWalk(dst []uint32, pt geom.Point, eps float64, refine bool) []uint32 {
	n := 0
	for i, t := range p.trees {
		if !p.mbrs[i].ContainsPoint(pt) {
			continue
		}
		n++
		base := len(dst)
		dst = t.AppendSearchPoint(dst, pt, ops.Null{})
		if refine {
			hits := dst[:base]
			for _, id := range dst[base:] {
				if p.ds.Seg(id).ContainsPoint(pt, eps) {
					hits = append(hits, id)
				}
			}
			dst = hits
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

// FilterRangeAppend appends the candidate ids of a window query to dst.
func (p *Pool) FilterRangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.rangeWalk(dst, w, false)
}

// RangeAppend appends the exact answer of a window query to dst.
func (p *Pool) RangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.rangeWalk(dst, w, true)
}

// FilterPointAppend appends the candidate ids of a point query to dst.
func (p *Pool) FilterPointAppend(dst []uint32, pt geom.Point) []uint32 {
	return p.pointWalk(dst, pt, 0, false)
}

// PointAppend appends the exact answer of a point query to dst.
func (p *Pool) PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32 {
	return p.pointWalk(dst, pt, eps, true)
}
