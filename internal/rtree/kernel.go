package rtree

import (
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// The serving kernel. The instrumented walk in rtree.go is the paper's
// model: its op and address stream is what the cycle/energy simulators
// price, so it stays exactly as recorded. A server answering real queries
// passes ops.Null, and for that one observable case the tree runs the walk
// below instead: the same traversal order and the same answer, without the
// recorder calls, with a whole contained subtree emitted as one run of the
// leaf level. The exact queries (AppendRange, AppendPoint, KNearestCollect)
// refine from the segment each leaf entry carries, so the only memory they
// touch is the tree's; a range query skips the test for every MBR the
// window contains. Result order is part of the contract — replies, cached
// results and wire bytes are compared byte for byte against the
// instrumented walk's.

// untraced reports whether rec discards everything, which is what selects
// the kernel; there is no option.
func untraced(rec ops.Recorder) bool {
	_, null := rec.(ops.Null)
	return null
}

// nilIfNull hands the NN walks a nil recorder for an untraced query: they
// test it once per node instead of calling into a no-op per entry.
func nilIfNull(rec ops.Recorder) ops.Recorder {
	if untraced(rec) {
		return nil
	}
	return rec
}

// AppendRange appends the exact answer of a window query to dst: every item
// whose segment (Item.Seg) meets w, in the traversal order of Search.
//
// The refinement runs on the leaf entry the walk is already scanning, and
// only for an MBR that straddles the window's edge: an item MBR inside w
// bounds a segment inside w, so the item is appended without a test. The
// tree must therefore be built from SegItem items.
func (t *Tree) AppendRange(dst []uint32, w geom.Rect) []uint32 {
	return t.appendRange(dst, w, true)
}

// appendRange is the kernel behind AppendRange (refine) and an untraced
// AppendSearch (the filtering step alone).
func (t *Tree) appendRange(dst []uint32, w geom.Rect, refine bool) []uint32 {
	// The negated form also turns away a window with a NaN coordinate,
	// which intersects nothing.
	if t.root < 0 || !(w.Min.X <= w.Max.X && w.Min.Y <= w.Max.Y) {
		return dst
	}
	if !t.plain {
		if !refine {
			t.search(&t.nodes[t.root], w, ops.Null{}, &dst)
			return dst
		}
		return t.refWalk(dst, &t.nodes[t.root], &w)
	}
	if inside(&w, &t.bounds) {
		return appendRun(dst, t.leaves)
	}
	span := 1 // leaf slots under one entry of the root
	for l := 1; l < t.height; l++ {
		span *= t.cfg.fanout()
	}
	return t.rangeWalk(dst, &t.nodes[t.root], 0, span, &w, refine)
}

// refWalk answers AppendRange on a tree holding an empty or NaN item MBR,
// which passes raw compares that Rect.Intersects rejects: Search's filter at
// every level, and the segment test on every candidate.
func (t *Tree) refWalk(dst []uint32, n *node, w *geom.Rect) []uint32 {
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case !w.Intersects(e.MBR):
		case n.level > 0:
			dst = t.refWalk(dst, &t.nodes[e.ID], w)
		case e.Seg().IntersectsRect(*w):
			dst = append(dst, e.ID)
		}
	}
	return dst
}

// rangeWalk is the kernel's traversal of node n, whose first entry covers
// the leaf slots from first and whose every entry covers span of them.
func (t *Tree) rangeWalk(dst []uint32, n *node, first, span int, w *geom.Rect, refine bool) []uint32 {
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if overlaps(w, &e.MBR) && (!refine || inside(w, &e.MBR) || e.Seg().IntersectsRect(*w)) {
				dst = append(dst, e.ID)
			}
		}
		return dst
	}
	for i := range n.entries {
		e := &n.entries[i]
		if !overlaps(w, &e.MBR) {
			continue
		}
		lo := first + i*span
		if inside(w, &e.MBR) {
			// Every leaf under a contained subtree is a hit, and packed
			// levels keep those leaves contiguous; the last node of a
			// level may be ragged, hence the clip.
			dst = appendRun(dst, t.leaves[lo:min(lo+span, t.nitems)])
			continue
		}
		dst = t.rangeWalk(dst, &t.nodes[e.ID], lo, span/t.cfg.fanout(), w, refine)
	}
	return dst
}

// AppendPoint appends the exact answer of a point query to dst: every item
// whose segment passes within eps of pt, in the traversal order of
// SearchPoint. Every item whose MBR contains pt is tested against the
// segment its leaf carries — there is no containment short-cut, so eps
// keeps its meaning. Rect.ContainsPoint agrees with Rect.Intersects on a
// degenerate window whatever the item MBRs, so no tree needs a reference
// walk here.
func (t *Tree) AppendPoint(dst []uint32, pt geom.Point, eps float64) []uint32 {
	if t.root < 0 {
		return dst
	}
	return t.pointWalk(dst, &t.nodes[t.root], pt, eps)
}

func (t *Tree) pointWalk(dst []uint32, n *node, pt geom.Point, eps float64) []uint32 {
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if e.MBR.ContainsPoint(pt) && e.Seg().ContainsPoint(pt, eps) {
				dst = append(dst, e.ID)
			}
		}
		return dst
	}
	for i := range n.entries {
		if e := &n.entries[i]; e.MBR.ContainsPoint(pt) {
			dst = t.pointWalk(dst, &t.nodes[e.ID], pt, eps)
		}
	}
	return dst
}

// overlaps is Rect.Intersects for two rectangles already known to be
// non-empty: four compares.
func overlaps(w, r *geom.Rect) bool {
	return w.Min.X <= r.Max.X && r.Min.X <= w.Max.X &&
		w.Min.Y <= r.Max.Y && r.Min.Y <= w.Max.Y
}

// inside reports whether non-empty r lies within w, edges included.
func inside(w, r *geom.Rect) bool {
	return w.Min.X <= r.Min.X && r.Max.X <= w.Max.X &&
		w.Min.Y <= r.Min.Y && r.Max.Y <= w.Max.Y
}

func appendRun(dst []uint32, run []Item) []uint32 {
	for i := range run {
		dst = append(dst, run[i].ID)
	}
	return dst
}
