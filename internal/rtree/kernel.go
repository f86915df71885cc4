package rtree

import (
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// The serving kernel. The instrumented walk in rtree.go is the paper's
// model: its op and address stream is what the cycle/energy simulators
// price, so it stays exactly as recorded. Serving code calls the walks
// below by name (AppendRange, AppendPoint, KNearestCollect): the same
// traversal order and the same answer, without the recorder calls, with a
// whole contained subtree emitted as one run of the leaf level. The exact
// queries refine from the segment each leaf entry carries, so the only
// memory they touch is the tree's; a range query skips the test for every
// MBR the window contains. Every walk hands back, beside each id, the
// segment of the leaf it matched when the caller asks for it (a non-nil
// segs, or Neighbor.Seg): a record is the geometry the walk chose, never a
// second look-up. Result order is part of the contract — replies, cached
// results and wire bytes are compared byte for byte against the
// instrumented walk's.
//
// One walk answers and counts. Handed a non-nil *ops.Counts, the range and
// point kernels add to it exactly what the instrumented walk records for the
// same query (tally), a skipped subtree in closed form, so a client charging
// its own processor for a local answer prices the walk that produced it. A
// server passes nil, which costs one test per node.
//
// k-NN has a kernel of its own (collectKNN), behind KNearestCollect: a
// depth-first branch-and-bound over squared MINDIST, with no math.Hypot,
// that picks each next child by a selection scan instead of sorting the
// node. Its pruning is conservative — the k-th distance squared is widened
// by a relative 1e-12 (knnSlack) before anything is dropped — and its
// admission is the traced walk's exact distance under Neighbor.Before, so
// its answers are bit-identical: the first k of a flat (distance, id) sort.
// It is not the simulator's MINMAXDIST walk, so it counts nothing.
//
// The traced entry points still hand an ops.Null recorder to the kernel
// (untraced: AppendSearch) or skip their recorder calls for it (nilIfNull:
// NearestWith). Only the bench ladder and tests reach that dispatch; it goes
// when the benchmark re-anchor (ROADMAP item 1a-i) moves the ladder onto the
// kernels by name.

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
// it too, beside its id. When c is non-nil it receives exactly the counts
// the traced Search records for w (see tally), whatever the walk skipped.
//
// The refinement runs on the leaf entry the walk is already scanning, and
// only for an MBR that straddles the window's edge: an item MBR inside w
// bounds a segment inside w, so the item is appended without a test. The
// tree must therefore be built from SegItem items.
func (t *Tree) AppendRange(dst []uint32, segs *[]geom.Segment, w geom.Rect, refine bool, c *ops.Counts) []uint32 {
	if t.root < 0 {
		return dst
	}
	root := &t.nodes[t.root]
	// The negated form also turns away a window with a NaN coordinate,
	// which intersects nothing; the traced walk still visits the root and
	// tests its entries.
	if !(w.Min.X <= w.Max.X && w.Min.Y <= w.Max.Y) {
		if c != nil {
			tally(c, 1, len(root.entries), 0)
		}
		return dst
	}
	q := rangeQuery{w: w, segs: segs, refine: refine, c: c}
	if !t.plain {
		return t.refWalk(dst, root, &q)
	}
	if inside(&w, &t.bounds) {
		if c != nil {
			t.tallyRun(c, t.nitems, t.height)
		}
		return appendRun(dst, segs, t.leaves)
	}
	span := 1 // leaf slots under one entry of the root
	for l := 1; l < t.height; l++ {
		span *= t.cfg.fanout()
	}
	return t.rangeWalk(dst, root, 0, span, &q)
}

// rangeQuery is one window query through the kernel.
type rangeQuery struct {
	w      geom.Rect
	segs   *[]geom.Segment
	refine bool
	c      *ops.Counts
}

// tally adds to c what the traced walk (search) records for visiting nodes
// nodes, examining entries entries and passing cands candidates on: a node
// visit and a header load per node, an MBR test and an entry load per
// entry, a result append and an id store per candidate. The kernels call it
// once per node, and only for a non-nil c.
func tally(c *ops.Counts, nodes, entries, cands int) {
	c.Ops[ops.OpNodeVisit] += int64(nodes)
	c.Ops[ops.OpMBRTest] += int64(entries)
	c.Ops[ops.OpResultAppend] += int64(cands)
	c.LoadCalls += int64(nodes + entries)
	c.LoadBytes += int64(nodes*HeaderBytes + entries*EntryBytes)
	c.StoreCalls += int64(cands)
	c.StoreBytes += int64(cands * idBytes)
}

// tallyRun tallies a contained subtree of the given number of levels over m
// leaf slots, which the kernel appends as one run: the traced walk visits
// every node of it, tests every entry and passes every item on. Level by
// level a packed subtree has ⌈m/fanout⌉ nodes over m entries, the ragged
// last node included, up to its root; every node but that root is an entry
// of its parent, whose test the caller has already tallied.
func (t *Tree) tallyRun(c *ops.Counts, m, levels int) {
	nodes := 0
	for n := m; levels > 0; levels-- {
		n = (n + t.cfg.fanout() - 1) / t.cfg.fanout()
		nodes += n
	}
	tally(c, nodes, m+nodes-1, m)
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
func (t *Tree) refWalk(dst []uint32, n *node, q *rangeQuery) []uint32 {
	cands := 0
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case !q.w.Intersects(e.MBR):
		case n.level > 0:
			dst = t.refWalk(dst, &t.nodes[e.ID], q)
		default:
			cands++
			if !q.refine || e.Seg().IntersectsRect(q.w) {
				dst = hit(dst, q.segs, e)
			}
		}
	}
	if q.c != nil {
		tally(q.c, 1, len(n.entries), cands)
	}
	return dst
}

// rangeWalk is the kernel's traversal of node n, whose first entry covers
// the leaf slots from first and whose every entry covers span of them.
func (t *Tree) rangeWalk(dst []uint32, n *node, first, span int, q *rangeQuery) []uint32 {
	w := &q.w
	if n.level == 0 {
		cands := 0
		for i := range n.entries {
			e := &n.entries[i]
			if !overlaps(w, &e.MBR) {
				continue
			}
			cands++
			if !q.refine || inside(w, &e.MBR) || e.Seg().IntersectsRect(*w) {
				dst = hit(dst, q.segs, e)
			}
		}
		if q.c != nil {
			tally(q.c, 1, len(n.entries), cands)
		}
		return dst
	}
	if q.c != nil {
		tally(q.c, 1, len(n.entries), 0)
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
			run := t.leaves[lo:min(lo+span, t.nitems)]
			if q.c != nil {
				t.tallyRun(q.c, len(run), int(n.level))
			}
			dst = appendRun(dst, q.segs, run)
			continue
		}
		dst = t.rangeWalk(dst, &t.nodes[e.ID], lo, span/t.cfg.fanout(), q)
	}
	return dst
}

// AppendPoint appends the exact answer of a point query to dst: every item
// whose segment passes within eps of pt, in the traversal order of
// SearchPoint, with each one's segment appended to segs when segs is
// non-nil, and SearchPoint's counts added to c when c is non-nil. Every
// item whose MBR contains pt is tested against the segment its leaf carries
// — there is no containment short-cut, so eps keeps its meaning.
// Rect.ContainsPoint agrees with Rect.Intersects on a degenerate window
// whatever the item MBRs, so no tree needs a reference walk here. The
// filtering step alone is AppendRange over the degenerate window.
func (t *Tree) AppendPoint(dst []uint32, segs *[]geom.Segment, pt geom.Point, eps float64, c *ops.Counts) []uint32 {
	if t.root < 0 {
		return dst
	}
	q := pointQuery{pt: pt, eps: eps, segs: segs, c: c}
	return t.pointWalk(dst, &t.nodes[t.root], &q)
}

// pointQuery is one point query through the kernel.
type pointQuery struct {
	pt   geom.Point
	eps  float64
	segs *[]geom.Segment
	c    *ops.Counts
}

func (t *Tree) pointWalk(dst []uint32, n *node, q *pointQuery) []uint32 {
	if n.level == 0 {
		cands := 0
		for i := range n.entries {
			e := &n.entries[i]
			if !e.MBR.ContainsPoint(q.pt) {
				continue
			}
			cands++
			if e.Seg().ContainsPoint(q.pt, q.eps) {
				dst = hit(dst, q.segs, e)
			}
		}
		if q.c != nil {
			tally(q.c, 1, len(n.entries), cands)
		}
		return dst
	}
	if q.c != nil {
		tally(q.c, 1, len(n.entries), 0)
	}
	for i := range n.entries {
		if e := &n.entries[i]; e.MBR.ContainsPoint(q.pt) {
			dst = t.pointWalk(dst, &t.nodes[e.ID], q)
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
	skip  func(uint32) bool
	sc    *NNScratch
	bound float64
}

// collectKNN folds the tree's k nearest items into sc's running accumulator
// under the Before order, each at the distance of the segment its leaf
// carries (Item.Seg), leaving out the ids skip reports: the k-NN kernel
// behind KNearestCollect.
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
func (t *Tree) collectKNN(p geom.Point, k int, skip func(uint32) bool, sc *NNScratch) {
	q := knnQuery{p: p, k: k, skip: skip, sc: sc}
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
			if q.skip != nil && q.skip(e.ID) {
				continue
			}
			seg := e.Seg()
			d := seg.DistToPoint(q.p)
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
