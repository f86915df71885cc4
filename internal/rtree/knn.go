package rtree

import (
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// k-nearest-neighbor search — one of the "other spatial queries" the paper
// lists as future work (§7). The algorithm generalizes the Roussopoulos
// branch-and-bound: a max-heap keeps the k best exact distances found so
// far, and subtrees are pruned against the k-th best once the heap is full.

// Neighbor is one k-NN result.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// neighborHeap is a max-heap on distance (the worst of the current best-k
// sits on top). The sift routines are the container/heap algorithm on the
// concrete type — heap.Push boxes every Neighbor into an interface{}, which
// would put an allocation in the middle of the zero-alloc query path.
type neighborHeap []Neighbor

func (h neighborHeap) less(i, j int) bool { return h[i].Dist > h[j].Dist }

func (h *neighborHeap) push(nb Neighbor) {
	*h = append(*h, nb)
	h.up(len(*h) - 1)
}

func (h *neighborHeap) pop() Neighbor {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	nb := old[n]
	*h = old[:n]
	return nb
}

func (h neighborHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h neighborHeap) down(i0, n int) {
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
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// KNearest returns the k items nearest to p in ascending distance order
// (fewer if the tree holds fewer than k items). dist supplies exact item
// distances exactly as in Nearest.
func (t *Tree) KNearest(p geom.Point, k int, dist DistFunc, rec ops.Recorder) []Neighbor {
	if t.root < 0 || k <= 0 {
		return nil
	}
	return t.KNearestAppend(nil, p, k, dist, rec, nil)
}

// KNearestAppend is KNearest appending into dst with an optional
// caller-owned scratch — the allocation-free k-NN path. The traversal is
// shared with KNearest, so answers (ties included) are identical.
func (t *Tree) KNearestAppend(dst []Neighbor, p geom.Point, k int, dist DistFunc, rec ops.Recorder, sc *NNScratch) []Neighbor {
	if t.root < 0 || k <= 0 {
		return dst
	}
	var best neighborHeap
	if sc != nil {
		best = sc.heap[:0]
	}
	t.knn(&t.nodes[t.root], p, k, dist, nil, nilIfNull(rec), sc, &best)
	start := len(dst)
	n := len(best)
	for i := 0; i < n; i++ {
		dst = append(dst, Neighbor{})
	}
	for i := start + n - 1; i >= start; i-- {
		dst[i] = best.pop()
	}
	if sc != nil {
		sc.heap = best[:0]
	}
	return dst
}

// The running-accumulator API. A sharded index answers one k-NN query by
// folding several per-shard trees into one scratch-held heap: the k-th best
// distance travels from shard to shard, pruning inside every later tree.
// KNearestAppend under ops.Null is ResetKNN + one KNearestCollect +
// DrainKNNAppend wherever dist is the distance to the segment each leaf
// carries: single-tree and cross-tree answers share one traversal.

// ResetKNN empties sc's running k-NN accumulator. Call once before a
// sequence of KNearestCollect folds.
func (sc *NNScratch) ResetKNN() { sc.heap = sc.heap[:0] }

// KNNLen returns the number of neighbors currently accumulated.
func (sc *NNScratch) KNNLen() int { return len(sc.heap) }

// KNNBound returns the accumulator's pruning distance: the k-th best so
// far, or +Inf while fewer than k neighbors are known. A subtree — or a
// whole shard — whose lower bound exceeds it cannot contribute.
func (sc *NNScratch) KNNBound(k int) float64 { return knnBound(&sc.heap, k) }

// DrainKNNAppend appends the accumulated neighbors to dst in ascending
// distance order and empties the accumulator.
func (sc *NNScratch) DrainKNNAppend(dst []Neighbor) []Neighbor {
	start := len(dst)
	n := len(sc.heap)
	for i := 0; i < n; i++ {
		dst = append(dst, Neighbor{})
	}
	for i := start + n - 1; i >= start; i-- {
		dst[i] = sc.heap.pop()
	}
	sc.heap = sc.heap[:0]
	return dst
}

// KNNOffer folds one externally-computed candidate into sc's running
// accumulator, applying the same admit/evict rule the tree traversal uses.
// An updatable shard answers k-NN by collecting from its packed base, then
// offering the handful of overlay items (and skipping tombstoned ids) —
// the merged answer is what one tree over the union would have produced.
func (sc *NNScratch) KNNOffer(k int, nb Neighbor) {
	if k <= 0 || nb.Dist >= knnBound(&sc.heap, k) {
		return
	}
	sc.heap.push(nb)
	if len(sc.heap) > k {
		sc.heap.pop()
	}
}

// KNearestCollect folds this tree's k nearest items into sc's running
// accumulator, pruning against the bound the accumulator already carries —
// the serving pools' k-NN step, untraced. An item's distance is that of the
// segment its leaf carries (Item.Seg), and an item for which skip reports
// true is left out as if it were not indexed; a nil skip leaves out
// nothing. sc must be non-nil; results accumulate across calls until
// DrainKNNAppend.
func (t *Tree) KNearestCollect(p geom.Point, k int, skip func(id uint32) bool, sc *NNScratch) {
	if t.root < 0 || k <= 0 {
		return
	}
	heap := sc.heap
	t.knn(&t.nodes[t.root], p, k, nil, skip, nil, sc, &heap)
	sc.heap = heap
}

// bound returns the pruning distance: the k-th best so far, or +Inf while
// fewer than k neighbors are known.
func knnBound(best *neighborHeap, k int) float64 {
	if len(*best) < k {
		return math.Inf(1)
	}
	return (*best)[0].Dist
}

// knn is the k-NN descent; rec is nil for an untraced query, as in nearest.
// A nil dist takes each item's distance from its leaf (KNearestCollect),
// leaving out the ids skip reports.
func (t *Tree) knn(n *node, p geom.Point, k int, dist DistFunc, skip func(uint32) bool, rec ops.Recorder, sc *NNScratch, best *neighborHeap) {
	traced := rec != nil
	if traced {
		t.visitNode(n, rec)
	}
	if n.level == 0 {
		for i := range n.entries {
			if traced {
				t.scanEntry(n, i, rec)
				rec.Op(ops.OpDistCalc, 1)
			}
			e := &n.entries[i]
			if e.MBR.MinDist(p) > knnBound(best, k) {
				continue
			}
			var d float64
			switch {
			case dist != nil:
				d = dist(e.ID)
			case skip != nil && skip(e.ID):
				continue
			default:
				d = e.Seg().DistToPoint(p)
			}
			if d < knnBound(best, k) {
				best.push(Neighbor{ID: e.ID, Dist: d})
				if traced {
					rec.Op(ops.OpHeapOp, 1)
				}
				if len(*best) > k {
					best.pop()
					if traced {
						rec.Op(ops.OpHeapOp, 1)
					}
				}
			}
		}
		return
	}
	var branches []branch
	if sc != nil {
		branches = sc.level(n.level)
	} else {
		branches = make([]branch, 0, len(n.entries))
	}
	for i := range n.entries {
		if traced {
			t.scanEntry(n, i, rec)
			rec.Op(ops.OpDistCalc, 1)
		}
		branches = append(branches, branch{minDist: n.entries[i].MBR.MinDist(p), idx: i})
	}
	if sc != nil {
		sc.keep(n.level, branches)
	}
	sortBranches(branches)
	if traced {
		rec.Op(ops.OpHeapOp, len(branches))
	}
	for _, br := range branches {
		if br.minDist > knnBound(best, k) {
			break // MINDIST-ordered: all later branches prune too
		}
		t.knn(&t.nodes[n.entries[br.idx].ID], p, k, dist, skip, rec, sc, best)
	}
}
