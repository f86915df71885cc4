package rtree

import (
	"math"
	"slices"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// k-nearest-neighbor search — one of the "other spatial queries" the paper
// lists as future work (§7). The algorithm generalizes the Roussopoulos
// branch-and-bound: a max-heap keeps the k best exact distances found so
// far, and subtrees are pruned against the k-th best once the heap is full.
//
// The walk in this file (knn) is the traced model only: its op stream is
// what the simulator prices. Every serving k-NN runs the kernel
// (KNearestCollect, kernel.go) into the same heap and the same accumulator
// API defined here.

// Neighbor is one k-NN result: the item, its exact distance, and the
// segment its leaf carries — the geometry the distance was computed from,
// which a data-mode answer ships as the record.
type Neighbor struct {
	ID   uint32
	Dist float64
	Seg  geom.Segment
}

// Before is the one total order every serving k-NN answers in: by distance,
// equal distances by id. A k-NN answer is the k smallest neighbors under it,
// so equal-distance items cut by k resolve the same way in every engine —
// one tree, a sharded or mutable pool, a router's merge, a cached entry.
func (a Neighbor) Before(b Neighbor) bool {
	return a.Dist < b.Dist || a.Dist == b.Dist && a.ID < b.ID
}

// neighborHeap is a max-heap in the Before order (the worst of the current
// best-k sits on top). The sift routines are the container/heap algorithm
// on the concrete type — heap.Push boxes every Neighbor into an
// interface{}, which would put an allocation in the middle of the zero-alloc
// query path. An entry holds a neighbor's id and distance and the arena
// slot of its segment, so a sift moves sixteen bytes, not a whole Neighbor:
// the k entries own slots 0..k-1, and a neighbor that replaces the top takes
// the slot of the one it evicts.
type neighborHeap struct {
	ents []heapEnt
	segs []geom.Segment
}

type heapEnt struct {
	ID   uint32
	slot uint32
	Dist float64
}

func (h *neighborHeap) less(i, j int) bool {
	a, b := &h.ents[j], &h.ents[i]
	return a.Dist < b.Dist || a.Dist == b.Dist && a.ID < b.ID
}

// admits reports whether the neighbor id at distance d belongs among the
// best k held so far: while fewer than k are held any finite distance does,
// after that only a neighbor Before the current k-th.
func (h *neighborHeap) admits(k int, id uint32, d float64) bool {
	if len(h.ents) < k {
		return d < math.Inf(1)
	}
	top := &h.ents[0]
	return d < top.Dist || d == top.Dist && id < top.ID
}

// put folds nb in unconditionally: a push while fewer than k are held, else
// nb replaces the k-th best on top.
func (h *neighborHeap) put(k int, nb *Neighbor) {
	if n := len(h.ents); n < k {
		h.segs = append(h.segs[:n], nb.Seg)
		h.ents = append(h.ents, heapEnt{ID: nb.ID, slot: uint32(n), Dist: nb.Dist})
		h.up(n)
		return
	}
	top := &h.ents[0]
	h.segs[top.slot] = nb.Seg
	top.ID, top.Dist = nb.ID, nb.Dist
	h.down(0, len(h.ents))
}

// pop removes the k-th best and returns it; its segment stays in the arena
// until the next put.
func (h *neighborHeap) pop() heapEnt {
	n := len(h.ents) - 1
	h.ents[0], h.ents[n] = h.ents[n], h.ents[0]
	h.down(0, n)
	e := h.ents[n]
	h.ents = h.ents[:n]
	return e
}

func (h *neighborHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.ents[i], h.ents[j] = h.ents[j], h.ents[i]
		j = i
	}
}

func (h *neighborHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.ents[i], h.ents[j] = h.ents[j], h.ents[i]
		i = j
	}
}

// KNearest returns the k items nearest to p (fewer if the tree holds fewer
// than k items) through the simulator's traced walk (knn), nearest first.
// dist supplies exact item distances exactly as in Nearest. The walk admits
// by distance alone, as the simulator always has, so where k cuts an
// equal-distance run its ids need not be the smallest; the serving k-NN,
// which answers in the Before order, is KNearestCollect.
func (t *Tree) KNearest(p geom.Point, k int, dist DistFunc, rec ops.Recorder) []Neighbor {
	if t.root < 0 || k <= 0 {
		return nil
	}
	return t.KNearestAppend(nil, p, k, dist, rec, nil)
}

// KNearestAppend is KNearest appending into dst with an optional
// caller-owned scratch. It empties sc's running accumulator first, so it
// does not fold into earlier calls.
func (t *Tree) KNearestAppend(dst []Neighbor, p geom.Point, k int, dist DistFunc, rec ops.Recorder, sc *NNScratch) []Neighbor {
	if t.root < 0 || k <= 0 {
		return dst
	}
	if sc == nil {
		sc = new(NNScratch)
	}
	sc.ResetKNN()
	t.knn(&t.nodes[t.root], p, k, dist, rec, sc)
	return sc.DrainKNNAppend(dst)
}

// The running-accumulator API. A sharded index answers one k-NN query by
// folding several per-shard trees into one scratch-held heap: the k-th best
// distance travels from shard to shard, pruning inside every later tree.
// A single tree's answer is ResetKNN + one KNearestCollect +
// DrainKNNAppend: single-tree and cross-tree answers share one kernel.

// ResetKNN empties sc's running k-NN accumulator. Call once before a
// sequence of KNearestCollect folds.
func (sc *NNScratch) ResetKNN() { sc.heap.ents = sc.heap.ents[:0] }

// KNNLen returns the number of neighbors currently accumulated.
func (sc *NNScratch) KNNLen() int { return len(sc.heap.ents) }

// KNNBound returns the accumulator's pruning distance: the k-th best so
// far, or +Inf while fewer than k neighbors are known. A subtree — or a
// whole shard — whose lower bound exceeds it cannot contribute.
func (sc *NNScratch) KNNBound(k int) float64 { return knnBound(&sc.heap, k) }

// KNNWorst returns the accumulator's k-th best neighbor in the Before order,
// and false while fewer than k are known.
func (sc *NNScratch) KNNWorst(k int) (Neighbor, bool) {
	if len(sc.heap.ents) < k || k <= 0 {
		return Neighbor{}, false
	}
	e := &sc.heap.ents[0]
	return Neighbor{ID: e.ID, Dist: e.Dist, Seg: sc.heap.segs[e.slot]}, true
}

// DrainKNNAppend appends the accumulated neighbors to dst in the Before
// order and empties the accumulator.
func (sc *NNScratch) DrainKNNAppend(dst []Neighbor) []Neighbor {
	start, n := len(dst), len(sc.heap.ents)
	dst = slices.Grow(dst, n)[:start+n]
	for i := start + n - 1; i >= start; i-- {
		e := sc.heap.pop()
		dst[i] = Neighbor{ID: e.ID, Dist: e.Dist, Seg: sc.heap.segs[e.slot]}
	}
	return dst
}

// KNNOffer folds one externally-computed candidate into sc's running
// accumulator, applying the same admit/evict rule the tree traversal uses.
// An updatable shard answers k-NN by collecting from its packed base, then
// offering the handful of overlay items (and skipping tombstoned ids) —
// the merged answer is what one tree over the union would have produced.
func (sc *NNScratch) KNNOffer(k int, nb Neighbor) {
	if k > 0 && sc.heap.admits(k, nb.ID, nb.Dist) {
		sc.heap.put(k, &nb)
	}
}

// KNearestCollect folds this tree's k nearest items into sc's running
// accumulator, pruning against the bound the accumulator already carries —
// the serving pools' k-NN step. An item's distance is that of the segment
// its leaf carries (Item.Seg), and an item for which skip reports true is
// left out as if it were not indexed; a nil skip leaves out nothing. sc must
// be non-nil; results accumulate across calls until DrainKNNAppend. When c
// is non-nil it receives what the traced walk (KNearest) records for the
// same query (see collectKNN); servers pass nil. It returns the number of
// exact distances computed.
func (t *Tree) KNearestCollect(p geom.Point, k int, skip func(id uint32) bool, sc *NNScratch, c *ops.Counts) int {
	if t.root < 0 || k <= 0 {
		return 0
	}
	return t.collectKNN(p, k, skip, sc, c)
}

// bound returns the pruning distance: the k-th best so far, or +Inf while
// fewer than k neighbors are known.
func knnBound(best *neighborHeap, k int) float64 {
	if len(best.ents) < k {
		return math.Inf(1)
	}
	return best.ents[0].Dist
}

// knn is the simulator's k-NN descent, traced into rec: every entry
// scanned, every MINDIST and heap operation recorded, children visited in
// sorted MINDIST order, and a neighbor admitted only when strictly closer
// than the k-th best. Its op stream is what the machine models price, so it
// stays as recorded; serving queries take collectKNN instead.
func (t *Tree) knn(n *node, p geom.Point, k int, dist DistFunc, rec ops.Recorder, sc *NNScratch) {
	best := &sc.heap
	t.visitNode(n, rec)
	if n.level == 0 {
		for i := range n.entries {
			t.scanEntry(n, i, rec)
			rec.Op(ops.OpDistCalc, 1)
			e := &n.entries[i]
			if e.MBR.MinDist(p) > knnBound(best, k) {
				continue
			}
			if d := dist(e.ID); d < knnBound(best, k) {
				// A push, and a pop of the k-th best when the heap was full:
				// the evicted neighbor is the top, farther than d.
				rec.Op(ops.OpHeapOp, 1)
				if len(best.ents) == k {
					rec.Op(ops.OpHeapOp, 1)
				}
				best.put(k, &Neighbor{ID: e.ID, Dist: d, Seg: e.Seg()})
			}
		}
		return
	}
	branches := sc.level(n.level)
	for i := range n.entries {
		t.scanEntry(n, i, rec)
		rec.Op(ops.OpDistCalc, 1)
		branches = append(branches, branch{minDist: n.entries[i].MBR.MinDist(p), idx: i})
	}
	sc.keep(n.level, branches)
	sortBranches(branches)
	rec.Op(ops.OpHeapOp, len(branches))
	for _, br := range branches {
		if br.minDist > knnBound(best, k) {
			break // MINDIST-ordered: all later branches prune too
		}
		t.knn(&t.nodes[n.entries[br.idx].ID], p, k, dist, rec, sc)
	}
}
