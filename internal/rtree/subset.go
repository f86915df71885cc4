package rtree

import (
	"fmt"
	"math"
	"sort"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// Budget describes the client's memory availability for the insufficient-
// memory scenario (§4, Fig. 2): the shipped data records plus the shipped
// sub-index must fit in Bytes.
type Budget struct {
	// Bytes is the client memory available for data + index.
	Bytes int
	// RecordBytes is the size of one data record (segment geometry plus
	// attributes) as stored/shipped.
	RecordBytes int
}

// CapacityItems returns the largest number of items n such that
// n×RecordBytes + indexBytes(n) ≤ b.Bytes for a packed tree with the given
// node size and fanout.
func (b Budget) CapacityItems(nodeBytes, fanout int) int {
	if b.RecordBytes <= 0 {
		return 0
	}
	// Index size grows in steps; binary search on n.
	lo, hi := 0, b.Bytes/b.RecordBytes+1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*b.RecordBytes+packedIndexBytes(mid, nodeBytes, fanout) <= b.Bytes {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// packedIndexBytes returns the byte size of a packed tree over n items.
func packedIndexBytes(n, nodeBytes, fanout int) int {
	if n == 0 {
		return 0
	}
	nodes := 0
	level := n
	for {
		nn := (level + fanout - 1) / fanout
		nodes += nn
		if nn == 1 {
			break
		}
		level = nn
	}
	return nodes * nodeBytes
}

// Shipment is what the server sends the client in the insufficient-memory
// scenario: the chosen data items (in pack order), a freshly built sub-index
// over them, and a coverage rectangle with the guarantee that every master
// item intersecting Coverage is included in Items — so any later query
// window contained in Coverage can be answered entirely from the shipment.
type Shipment struct {
	Items    []Item
	SubTree  *Tree
	Coverage geom.Rect
}

// DataBytes returns the shipped data volume for the given record size.
func (s *Shipment) DataBytes(recordBytes int) int { return len(s.Items) * recordBytes }

// IndexBytes returns the shipped index volume.
func (s *Shipment) IndexBytes() int {
	if s.SubTree == nil {
		return 0
	}
	return s.SubTree.IndexBytes()
}

// ExtractSubset implements the shipment-selection algorithm of Fig. 2: the
// server locates the items satisfying the query window with one master-index
// traversal, then grows the selection *spatially* — expanding a rectangle
// around the window until the client's memory budget is full — and
// bulk-loads a fresh packed sub-index over the selection. Because every
// master item intersecting the expanded rectangle is shipped, that rectangle
// is the shipment's coverage guarantee by construction: any later window
// inside it can be answered entirely at the client.
//
// Any capacity left after the spatial expansion (the count jumps when the
// rectangle grows past a dense street cluster) is topped up with the
// selection's neighbors in Hilbert pack order — the "nodes on either side"
// widening of Fig. 2.
//
// rec receives the server-side work: the master traversals (including the
// expansion probes — part of the paper's w2 "extra work the server does"),
// the selection scan, and the sub-index build.
func (t *Tree) ExtractSubset(window geom.Rect, budget Budget, rec ops.Recorder) (*Shipment, error) {
	if t.root < 0 {
		return nil, fmt.Errorf("rtree: ExtractSubset on empty tree")
	}
	capacity := budget.CapacityItems(t.cfg.NodeBytes, t.cfg.fanout())
	if capacity < 1 {
		return nil, fmt.Errorf("rtree: budget %d bytes holds no items (record %dB)", budget.Bytes, budget.RecordBytes)
	}
	if capacity > t.nitems {
		capacity = t.nitems
	}

	base := window
	if base.IsEmpty() {
		c := t.bounds.Center()
		base = geom.Rect{Min: c, Max: c}
	}

	// Positions (in pack order) of items whose MBR intersects the window.
	positions := t.searchPositions(base, rec)

	if len(positions) > capacity {
		// The answer itself does not fit: ship as much of it as possible,
		// centered, with no coverage guarantee — the client will keep
		// re-requesting.
		start := (len(positions) - capacity) / 2
		selected := positions[start : start+capacity]
		ship, err := t.buildShipment(selected, rec)
		if err != nil {
			return nil, err
		}
		ship.Coverage = geom.EmptyRect()
		return ship, nil
	}

	// Spatial expansion: the largest margin δ such that the items
	// intersecting base.Expand(δ) still fit the capacity. Exponential
	// growth then binary search; every probe is one counting traversal of
	// the master index (server work).
	unit := maxf(t.bounds.Width(), t.bounds.Height())
	fits := func(d float64) bool { return t.countMatching(base.Expand(d), rec) <= capacity }
	loD, hiD := 0.0, unit/1024
	for fits(hiD) && hiD < 4*unit {
		loD = hiD
		hiD *= 2
	}
	if hiD >= 4*unit {
		// Everything fits: ship the whole dataset.
		all := make([]int, t.nitems)
		for i := range all {
			all[i] = i
		}
		ship, err := t.buildShipment(all, rec)
		if err != nil {
			return nil, err
		}
		ship.Coverage = t.bounds
		return ship, nil
	}
	for i := 0; i < 24; i++ {
		mid := (loD + hiD) / 2
		if fits(mid) {
			loD = mid
		} else {
			hiD = mid
		}
	}
	coverage := base.Expand(loD)
	selected := t.searchPositions(coverage, rec)
	if len(selected) == 0 {
		// Degenerate: nothing within the largest fitting margin (empty
		// region far from all data). Seed from the nearest item so the
		// client at least holds the local neighborhood.
		selected = []int{t.nearestPackPos(base.Center(), rec)}
	}
	// Top up leftover capacity with Hilbert-order neighbors; extra items
	// only add to the shipment, so the coverage guarantee stands.
	selected = widenSelection(selected, capacity, t.nitems)

	ship, err := t.buildShipment(selected, rec)
	if err != nil {
		return nil, err
	}
	ship.Coverage = coverage
	return ship, nil
}

// buildShipment materializes the selected pack positions and bulk-loads the
// sub-index, charging the copy and build to rec.
func (t *Tree) buildShipment(selected []int, rec ops.Recorder) (*Shipment, error) {
	items := make([]Item, len(selected))
	for i, pos := range selected {
		items[i] = t.leaves[pos]
	}
	rec.Op(ops.OpCopyWord, len(items)*EntryBytes/4)
	sub, err := Build(items, t.cfg, rec)
	if err != nil {
		return nil, err
	}
	return &Shipment{Items: items, SubTree: sub}, nil
}

// countMatching returns the number of items whose MBR intersects the window,
// charging the traversal to rec.
func (t *Tree) countMatching(window geom.Rect, rec ops.Recorder) int {
	count := 0
	var walk func(idx uint32)
	walk = func(idx uint32) {
		n := &t.nodes[idx]
		t.visitNode(n, rec)
		for i := range n.entries {
			t.scanEntry(n, i, rec)
			if !window.Intersects(n.entries[i].MBR) {
				continue
			}
			if n.level == 0 {
				count++
			} else {
				walk(n.entries[i].ID)
			}
		}
	}
	walk(uint32(t.root))
	return count
}

// widenSelection expands a sorted list of pack positions to
// min(capacity, nitems) positions. Interior gaps between matched runs are
// filled smallest-first (those positions are the spatially closest unmatched
// neighbors under Hilbert locality); any remaining capacity extends the
// outermost ends symmetrically.
func widenSelection(sel []int, capacity, nitems int) []int {
	sort.Ints(sel)
	// Deduplicate in place.
	uniq := sel[:0]
	for i, p := range sel {
		if i == 0 || p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	sel = uniq
	if capacity > nitems {
		capacity = nitems
	}
	remaining := capacity - len(sel)
	if remaining <= 0 {
		return sel
	}
	in := make(map[int]bool, capacity)
	for _, p := range sel {
		in[p] = true
	}
	add := func(p int) {
		if !in[p] {
			in[p] = true
			remaining--
		}
	}

	// Interior gaps, smallest first.
	type gap struct{ lo, hi int } // exclusive run bounds: positions lo..hi missing
	var gaps []gap
	for i := 1; i < len(sel); i++ {
		if sel[i] > sel[i-1]+1 {
			gaps = append(gaps, gap{sel[i-1] + 1, sel[i] - 1})
		}
	}
	sort.Slice(gaps, func(a, b int) bool {
		return gaps[a].hi-gaps[a].lo < gaps[b].hi-gaps[b].lo
	})
	for _, g := range gaps {
		size := g.hi - g.lo + 1
		if size > remaining {
			break
		}
		for p := g.lo; p <= g.hi; p++ {
			add(p)
		}
	}

	// Extend the outer ends alternately.
	lo, hi := sel[0], sel[len(sel)-1]
	for remaining > 0 && (lo > 0 || hi < nitems-1) {
		if lo > 0 {
			lo--
			add(lo)
		}
		if remaining > 0 && hi < nitems-1 {
			hi++
			add(hi)
		}
	}

	out := make([]int, 0, len(in))
	for p := range in {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// searchPositions is Search but returns pack-order positions instead of ids.
// Leaf node k covers pack positions [k×fanout, k×fanout+len(entries)).
func (t *Tree) searchPositions(window geom.Rect, rec ops.Recorder) []int {
	var out []int
	if t.root < 0 {
		return out
	}
	fanout := t.cfg.fanout()
	var walk func(idx uint32)
	walk = func(idx uint32) {
		n := &t.nodes[idx]
		t.visitNode(n, rec)
		for i := range n.entries {
			t.scanEntry(n, i, rec)
			if !window.Intersects(n.entries[i].MBR) {
				continue
			}
			if n.level == 0 {
				out = append(out, int(idx)*fanout+i)
			} else {
				walk(n.entries[i].ID)
			}
		}
	}
	walk(uint32(t.root))
	sort.Ints(out)
	return out
}

// nearestPackPos returns the pack position of the item whose MBR is nearest
// to p (by MINDIST), found with a branch-and-bound descent over node MBRs.
func (t *Tree) nearestPackPos(p geom.Point, rec ops.Recorder) int {
	fanout := t.cfg.fanout()
	bestPos := 0
	best := math.Inf(1)
	var walk func(idx uint32)
	walk = func(idx uint32) {
		n := &t.nodes[idx]
		t.visitNode(n, rec)
		type cand struct {
			d float64
			i int
		}
		cands := make([]cand, 0, len(n.entries))
		for i := range n.entries {
			t.scanEntry(n, i, rec)
			rec.Op(ops.OpDistCalc, 1)
			cands = append(cands, cand{n.entries[i].MBR.MinDist(p), i})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
		for _, c := range cands {
			if c.d >= best {
				break // MINDIST lower-bounds every descendant
			}
			if n.level == 0 {
				best = c.d
				bestPos = int(idx)*fanout + c.i
			} else {
				walk(n.entries[c.i].ID)
			}
		}
	}
	walk(uint32(t.root))
	return bestPos
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
