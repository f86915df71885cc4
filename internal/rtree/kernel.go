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
// leaf level and with the caller's exact test skipped for every MBR the
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

// AppendRange appends the answer of a window query to dst: every item whose
// MBR intersects w and for which exact(id) is true, in the traversal order
// of Search. A nil exact keeps every MBR hit (the filtering step alone).
//
// exact is the caller's refinement predicate — "the geometry of id
// intersects w" — and is consulted only for MBRs that straddle the window's
// edge: an item MBR inside w bounds geometry that lies inside w, so the item
// is appended without asking. The MBRs the tree was built from must
// therefore cover the geometry exact looks up.
func (t *Tree) AppendRange(dst []uint32, w geom.Rect, exact func(id uint32) bool) []uint32 {
	// The negated form also turns away a window with a NaN coordinate,
	// which intersects nothing.
	if t.root < 0 || !(w.Min.X <= w.Max.X && w.Min.Y <= w.Max.Y) {
		return dst
	}
	if !t.plain {
		return t.appendRangeRef(dst, w, exact)
	}
	if inside(&w, &t.bounds) {
		return appendRun(dst, t.leaves)
	}
	span := 1 // leaf slots under one entry of the root
	for l := 1; l < t.height; l++ {
		span *= t.cfg.fanout()
	}
	return t.rangeWalk(dst, &t.nodes[t.root], 0, span, &w, exact)
}

// appendRangeRef answers AppendRange on a tree holding an empty or NaN item
// MBR, which passes raw compares that Rect.Intersects rejects: the reference
// walk filters, then exact refines every candidate.
func (t *Tree) appendRangeRef(dst []uint32, w geom.Rect, exact func(uint32) bool) []uint32 {
	n := len(dst)
	t.search(&t.nodes[t.root], w, ops.Null{}, &dst)
	if exact == nil {
		return dst
	}
	hits := dst[:n]
	for _, id := range dst[n:] {
		if exact(id) {
			hits = append(hits, id)
		}
	}
	return hits
}

// rangeWalk is the kernel's traversal of node n, whose first entry covers
// the leaf slots from first and whose every entry covers span of them.
func (t *Tree) rangeWalk(dst []uint32, n *node, first, span int, w *geom.Rect, exact func(uint32) bool) []uint32 {
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if overlaps(w, &e.MBR) && (exact == nil || inside(w, &e.MBR) || exact(e.ID)) {
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
		dst = t.rangeWalk(dst, &t.nodes[e.ID], lo, span/t.cfg.fanout(), w, exact)
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
