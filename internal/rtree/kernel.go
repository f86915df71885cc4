package rtree

import (
	"math"

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
// window contains. Every walk hands back, beside each id, the segment of the
// leaf it matched when the caller asks for it (a non-nil segs, or
// Neighbor.Seg): a record is the geometry the walk chose, never a second
// look-up. Result order is part of the contract — replies, cached results
// and wire bytes are compared byte for byte against the instrumented
// walk's.
//
// k-NN has a kernel of its own (collectKNN), run by every untraced k-NN: a
// depth-first branch-and-bound over squared MINDIST, with no math.Hypot,
// that picks each next child by a selection scan instead of sorting the
// node. Its pruning is conservative — the k-th distance squared is widened
// by a relative 1e-12 (knnSlack) before anything is dropped — and its
// admission is the traced walk's exact distance under Neighbor.Before, so
// its answers are bit-identical: the first k of a flat (distance, id) sort.

// untraced reports whether rec discards everything, which is what selects
// the kernel; there is no option.
func untraced(rec ops.Recorder) bool {
	_, null := rec.(ops.Null)
	return null
}

// nilIfNull hands the 1-NN walk a nil recorder for an untraced query: it
// tests it once per node instead of calling into a no-op per entry.
func nilIfNull(rec ops.Recorder) ops.Recorder {
	if untraced(rec) {
		return nil
	}
	return rec
}

// AppendRange appends to dst the items a window query selects, in the
// traversal order of Search: with refine, every item whose segment
// (Item.Seg) meets w; without, every item whose MBR does (the filtering step
// alone). When segs is non-nil each selected item's segment is appended to
// it too, beside its id.
//
// The refinement runs on the leaf entry the walk is already scanning, and
// only for an MBR that straddles the window's edge: an item MBR inside w
// bounds a segment inside w, so the item is appended without a test. The
// tree must therefore be built from SegItem items.
func (t *Tree) AppendRange(dst []uint32, segs *[]geom.Segment, w geom.Rect, refine bool) []uint32 {
	// The negated form also turns away a window with a NaN coordinate,
	// which intersects nothing.
	if t.root < 0 || !(w.Min.X <= w.Max.X && w.Min.Y <= w.Max.Y) {
		return dst
	}
	if !t.plain {
		return t.refWalk(dst, segs, &t.nodes[t.root], &w, refine)
	}
	if inside(&w, &t.bounds) {
		return appendRun(dst, segs, t.leaves)
	}
	span := 1 // leaf slots under one entry of the root
	for l := 1; l < t.height; l++ {
		span *= t.cfg.fanout()
	}
	return t.rangeWalk(dst, segs, &t.nodes[t.root], 0, span, &w, refine)
}

// hit appends leaf entry e to dst, and its segment to segs when asked.
func hit(dst []uint32, segs *[]geom.Segment, e *Item) []uint32 {
	if segs != nil {
		*segs = append(*segs, e.Seg())
	}
	return append(dst, e.ID)
}

// refWalk answers AppendRange on a tree holding an empty or NaN item MBR,
// which passes raw compares that Rect.Intersects rejects: Search's filter at
// every level, and with refine the segment test on every candidate.
func (t *Tree) refWalk(dst []uint32, segs *[]geom.Segment, n *node, w *geom.Rect, refine bool) []uint32 {
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case !w.Intersects(e.MBR):
		case n.level > 0:
			dst = t.refWalk(dst, segs, &t.nodes[e.ID], w, refine)
		case !refine || e.Seg().IntersectsRect(*w):
			dst = hit(dst, segs, e)
		}
	}
	return dst
}

// rangeWalk is the kernel's traversal of node n, whose first entry covers
// the leaf slots from first and whose every entry covers span of them.
func (t *Tree) rangeWalk(dst []uint32, segs *[]geom.Segment, n *node, first, span int, w *geom.Rect, refine bool) []uint32 {
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if overlaps(w, &e.MBR) && (!refine || inside(w, &e.MBR) || e.Seg().IntersectsRect(*w)) {
				dst = hit(dst, segs, e)
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
			dst = appendRun(dst, segs, t.leaves[lo:min(lo+span, t.nitems)])
			continue
		}
		dst = t.rangeWalk(dst, segs, &t.nodes[e.ID], lo, span/t.cfg.fanout(), w, refine)
	}
	return dst
}

// AppendPoint appends the exact answer of a point query to dst: every item
// whose segment passes within eps of pt, in the traversal order of
// SearchPoint, with each one's segment appended to segs when segs is
// non-nil. Every item whose MBR contains pt is tested against the segment
// its leaf carries — there is no containment short-cut, so eps keeps its
// meaning. Rect.ContainsPoint agrees with Rect.Intersects on a degenerate
// window whatever the item MBRs, so no tree needs a reference walk here.
// The filtering step alone is AppendRange over the degenerate window.
func (t *Tree) AppendPoint(dst []uint32, segs *[]geom.Segment, pt geom.Point, eps float64) []uint32 {
	if t.root < 0 {
		return dst
	}
	return t.pointWalk(dst, segs, &t.nodes[t.root], pt, eps)
}

func (t *Tree) pointWalk(dst []uint32, segs *[]geom.Segment, n *node, pt geom.Point, eps float64) []uint32 {
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if e.MBR.ContainsPoint(pt) && e.Seg().ContainsPoint(pt, eps) {
				dst = hit(dst, segs, e)
			}
		}
		return dst
	}
	for i := range n.entries {
		if e := &n.entries[i]; e.MBR.ContainsPoint(pt) {
			dst = t.pointWalk(dst, segs, &t.nodes[e.ID], pt, eps)
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

func appendRun(dst []uint32, segs *[]geom.Segment, run []Item) []uint32 {
	for i := range run {
		dst = hit(dst, segs, &run[i])
	}
	return dst
}

// knnSlack widens the k-th best distance squared before the k-NN kernel
// prunes against it. MinDistSq and the square of the bound each sit within a
// few ulps of the exact values, so a relative 1e-12 keeps every entry whose
// MinDist does not exceed the bound: the kernel examines at least what the
// traced walk's Hypot test would.
const knnSlack = 1 + 1e-12

// knnQuery is one k-NN fold through the kernel. bound is the pruning
// distance squared and widened by knnSlack, +Inf while fewer than k
// neighbors are held.
type knnQuery struct {
	p     geom.Point
	k     int
	dist  DistFunc
	skip  func(uint32) bool
	sc    *NNScratch
	bound float64
}

// collectKNN folds the tree's k nearest items into sc's running accumulator
// under the Before order: the k-NN kernel behind KNearestCollect and every
// untraced KNearestAppend. A nil dist takes each item's distance from its
// leaf (Item.Seg), leaving out the ids skip reports.
//
// It is a depth-first branch-and-bound over squared MINDIST. At an inner
// node it computes every child's MinDistSq once, then repeatedly selects the
// nearest child not yet visited (a linear scan; ties go to the lower entry
// index), marks it visited and descends, until the nearest left is farther
// than the bound. A leaf entry is pruned the same way, and every survivor is
// admitted by its exact distance under Before. The accumulator then holds
// the k smallest (distance, id) of everything offered, and the widened bound
// never prunes an entry those could include, so the answer is the one any
// exhaustive scan gives, bit for bit, whatever order the walk took.
func (t *Tree) collectKNN(p geom.Point, k int, dist DistFunc, skip func(uint32) bool, sc *NNScratch) {
	q := knnQuery{p: p, k: k, dist: dist, skip: skip, sc: sc}
	q.tighten()
	t.knnWalk(&t.nodes[t.root], &q)
}

// tighten recomputes q.bound from the accumulator.
func (q *knnQuery) tighten() {
	h := q.sc.heap.ents
	if len(h) < q.k {
		q.bound = math.Inf(1)
		return
	}
	q.bound = h[0].Dist * h[0].Dist * knnSlack
}

// KNNPruneSq is the accumulator's pruning bound in the kernel's terms: the
// k-th best distance squared, widened by knnSlack, or +Inf while fewer than
// k neighbors are held. A candidate whose MINDIST squared exceeds it cannot
// be admitted, so a caller offering its own candidates (KNNOffer) may skip
// it unexamined.
func (sc *NNScratch) KNNPruneSq(k int) float64 {
	q := knnQuery{k: k, sc: sc}
	q.tighten()
	return q.bound
}

func (t *Tree) knnWalk(n *node, q *knnQuery) {
	if n.level == 0 {
		h := &q.sc.heap
		for i := range n.entries {
			e := &n.entries[i]
			if e.MBR.MinDistSq(q.p) > q.bound {
				continue
			}
			seg := e.Seg()
			var d float64
			switch {
			case q.dist != nil:
				d = q.dist(e.ID)
			case q.skip != nil && q.skip(e.ID):
				continue
			default:
				d = seg.DistToPoint(q.p)
			}
			if h.admits(q.k, e.ID, d) {
				h.put(q.k, &Neighbor{ID: e.ID, Dist: d, Seg: seg})
				q.tighten()
			}
		}
		return
	}
	// The first selection rides on the pass that fills the buffer.
	kids := q.sc.level(n.level)
	next, nd := -1, math.Inf(1)
	for i := range n.entries {
		d := n.entries[i].MBR.MinDistSq(q.p)
		kids = append(kids, branch{minDist: d, idx: i})
		if d < nd || next < 0 {
			next, nd = i, d
		}
	}
	q.sc.keep(n.level, kids)
	for next >= 0 && nd <= q.bound {
		child := n.entries[kids[next].idx].ID
		// A visited child is marked by its index, never by its distance:
		// a child at +Inf must not come round again while the bound is
		// still +Inf.
		kids[next].idx = -1
		t.knnWalk(&t.nodes[child], q)
		next, nd = -1, math.Inf(1)
		for i := range kids {
			if d := kids[i].minDist; (d < nd || next < 0) && kids[i].idx >= 0 {
				next, nd = i, d
			}
		}
	}
}
