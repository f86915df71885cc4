package rtree

import (
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// Spatial (intersection) join — one of the "other spatial queries" of the
// paper's future work (§7): find all pairs (a, b) of items from two layers
// whose geometries intersect (e.g. which streets cross which rail lines).
// The filtering step is the classic synchronized R-tree traversal of
// Brinkhoff, Kriegel, and Seeger: descend both trees in lockstep, pruning
// node pairs whose MBRs are disjoint; the refinement step (exact
// segment–segment tests) is the caller's, as for the other queries.

// Pair is one join candidate or result: item ids from the two layers.
type Pair struct {
	A, B uint32
}

// JoinCandidates returns all pairs of items whose MBRs intersect, by
// synchronized traversal of the two trees. Work on both traversals is
// charged to rec (the join runs wholly on one machine).
func JoinCandidates(ta, tb *Tree, rec ops.Recorder) []Pair {
	if ta.root < 0 || tb.root < 0 {
		return nil
	}
	var out []Pair
	joinNodes(ta, tb, ta.root, tb.root, rec, &out)
	return out
}

func joinNodes(ta, tb *Tree, ia, ib int32, rec ops.Recorder, out *[]Pair) {
	na, nb := &ta.nodes[ia], &tb.nodes[ib]
	ta.visitNode(na, rec)
	tb.visitNode(nb, rec)

	switch {
	case na.level == 0 && nb.level == 0:
		// Leaf × leaf: emit intersecting entry pairs.
		for i := range na.entries {
			ta.scanEntry(na, i, rec)
			for j := range nb.entries {
				rec.Op(ops.OpMBRTest, 1)
				if na.entries[i].MBR.Intersects(nb.entries[j].MBR) {
					rec.Op(ops.OpResultAppend, 1)
					rec.Store(ops.ScratchBase+uint64(len(*out))*8, 8)
					*out = append(*out, Pair{A: na.entries[i].ID, B: nb.entries[j].ID})
				}
			}
		}
	case na.level >= nb.level && na.level > 0:
		// Descend the taller (or equal) tree A.
		for i := range na.entries {
			ta.scanEntry(na, i, rec)
			if na.entries[i].MBR.Intersects(nodeMBROf(nb)) {
				joinNodes(ta, tb, int32(na.entries[i].ID), ib, rec, out)
			}
		}
	default:
		// Descend tree B.
		for j := range nb.entries {
			tb.scanEntry(nb, j, rec)
			if nb.entries[j].MBR.Intersects(nodeMBROf(na)) {
				joinNodes(ta, tb, ia, int32(nb.entries[j].ID), rec, out)
			}
		}
	}
}

// nodeMBROf returns the union of a node's entry MBRs (computed on the fly —
// nodes do not store their own MBR, their parents do).
func nodeMBROf(n *node) geom.Rect {
	mbr := geom.EmptyRect()
	for i := range n.entries {
		mbr = mbr.Union(n.entries[i].MBR)
	}
	return mbr
}
