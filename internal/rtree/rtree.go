// Package rtree implements the packed (bulk-loaded) R-tree of Kamel and
// Faloutsos used by the paper (§3): data items are sorted by the Hilbert
// value of their MBR centroid and the tree is built bottom-up, level by
// level, with every node filled to capacity. The structure is static — the
// paper considers read-only road-atlas data — so there is no insert/delete.
//
// Every node has a byte-exact simulated address assigned at build time, and
// the instrumented traversals emit their operation and memory-reference
// streams to an ops.Recorder, which is how the cycle/energy machine models
// observe the execution (see internal/ops). They are the paper's two
// phases: they filter on MBRs, and refinement against the data records is
// the caller's (a DistFunc for NN).
//
// The serving kernels (kernel.go) — AppendRange, AppendPoint,
// KNearestCollect — answer real queries: same answers in the same order,
// refined from the segment each leaf carries (Item.Seg) instead of from
// the dataset. Handed an *ops.Counts, the range and point kernels also
// tally exactly what the instrumented walk would record, so one walk
// answers and counts.
package rtree

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mobispatial/internal/geom"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/index"
	"mobispatial/internal/ops"
)

// Item is one spatial data item to index: an MBR, the caller's record
// identifier (for the road-atlas datasets, the segment id) and two bits
// saying which x end and which y end of the segment is A. A segment is its
// MBR plus those bits, so a leaf carries its segment and the serving kernel
// refines from the entry it is already scanning. The bits sit in what would
// otherwise be padding: an Item is 40 bytes either way. SegItem is the only
// way to build one outside this package.
type Item struct {
	MBR  geom.Rect
	ID   uint32
	ends uint8 // aAtMaxX | aAtMaxY
}

// The end bits: set when the segment's A end is at the MBR's Max on that
// axis (and B at its Min).
const (
	aAtMaxX uint8 = 1 << iota
	aAtMaxY
)

// SegItem is the item of segment s under id: s's MBR (what Segment.MBR
// returns for any segment without a NaN coordinate, -0 below +0 included)
// and which corner of it each end sits on.
func SegItem(s geom.Segment, id uint32) Item {
	it := Item{MBR: geom.Rect{Min: s.A, Max: s.B}, ID: id}
	if below(s.B.X, s.A.X) {
		it.MBR.Min.X, it.MBR.Max.X = s.B.X, s.A.X
		it.ends |= aAtMaxX
	}
	if below(s.B.Y, s.A.Y) {
		it.MBR.Min.Y, it.MBR.Max.Y = s.B.Y, s.A.Y
		it.ends |= aAtMaxY
	}
	return it
}

// below orders two coordinates as math.Min does: -0 below +0.
func below(a, b float64) bool {
	return a < b || (a == b && math.Signbit(a) && !math.Signbit(b))
}

// Seg rebuilds the segment of an item made by SegItem, bit for bit (±0
// included) for every segment without a NaN coordinate.
func (it Item) Seg() geom.Segment {
	s := geom.Segment{A: it.MBR.Min, B: it.MBR.Max}
	if it.ends&aAtMaxX != 0 {
		s.A.X, s.B.X = s.B.X, s.A.X
	}
	if it.ends&aAtMaxY != 0 {
		s.A.Y, s.B.Y = s.B.Y, s.A.Y
	}
	return s
}

// Config controls the physical layout of the tree.
type Config struct {
	// NodeBytes is the byte size of one index node; the default models a
	// 512-byte node as in the memory-resident index study the paper builds
	// on. Fanout is derived: (NodeBytes − HeaderBytes) / EntryBytes.
	NodeBytes int
	// BaseAddr is the simulated address of the first node; defaults to
	// ops.IndexBase.
	BaseAddr uint64
	// HilbertOrder is the order of the Hilbert curve used for sorting, in
	// [1, hilbert.MaxOrder]; defaults to hilbert.Order.
	HilbertOrder uint
	// Packing selects the bulk-load ordering; the default is Hilbert
	// packing (the paper's structure).
	Packing Packing
}

// Packing enumerates the bulk-load orderings.
type Packing uint8

// The available packings.
const (
	// PackingHilbert sorts by the Hilbert value of the MBR centroid (Kamel
	// and Faloutsos — the paper's structure).
	PackingHilbert Packing = iota
	// PackingSTR is Sort-Tile-Recursive (Leutenegger, Lopez, Edgington):
	// sort by x, cut into vertical tiles of ~√(n/fanout) leaves each, sort
	// each tile by y. A classic alternative the packing ablation compares.
	PackingSTR
	// PackingXSort is a naive 1-D x-sort (the ablation's strawman).
	PackingXSort
)

// Physical layout constants. MBRs are stored as four float32s plus a 4-byte
// pointer/id (20-byte entries) with an 8-byte node header (level, count,
// padding), matching the ~3.5 MB index the paper reports for the PA dataset.
const (
	HeaderBytes      = 8
	EntryBytes       = 20
	DefaultNodeBytes = 512
)

func (c *Config) fill() {
	if c.NodeBytes == 0 {
		c.NodeBytes = DefaultNodeBytes
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = ops.IndexBase
	}
	if c.HilbertOrder == 0 {
		c.HilbertOrder = hilbert.Order
	}
}

// fanout returns the number of entries per node for this config.
func (c Config) fanout() int { return (c.NodeBytes - HeaderBytes) / EntryBytes }

// entry is one slot of a node: an MBR and, in ID, either a child node index
// (internal nodes) or a data item id (leaves). It is Item itself, so the leaf
// level and the pack order are one array.
type entry = Item

// node is one index node.
type node struct {
	level   int16 // 0 = leaf
	addr    uint64
	entries []entry
}

// Tree is a packed R-tree over a static set of items.
type Tree struct {
	cfg    Config
	nodes  []node
	root   int32 // index into nodes; -1 when empty
	height int   // number of levels (0 for empty tree)
	nitems int
	bounds geom.Rect
	// leaves is the leaf level: the items in pack order, which every leaf
	// node's entries slice into. Leaf node k holds slots [k·fanout,
	// (k+1)·fanout), so a node at level h covers fanout^(h+1) consecutive
	// slots — what the serving kernel's subtree runs and the memory-budgeted
	// subset extraction (Fig. 2) both rely on.
	leaves []Item
	// plain reports that every item MBR has Min <= Max on both axes (not
	// empty, no NaN), the precondition for the serving kernel's raw compares
	// to agree with Rect.Intersects.
	plain bool
}

// Build bulk-loads a packed R-tree from items. The item slice is not
// retained; order is not preserved. rec receives the build's operation
// stream (one OpIndexBuildEntry per placed entry, plus the node stores),
// charged to whichever machine performs the build — the server builds the
// shipped sub-index in the insufficient-memory scenario (§4).
func Build(items []Item, cfg Config, rec ops.Recorder) (*Tree, error) {
	cfg.fill()
	fanout := cfg.fanout()
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: node size %dB gives fanout %d (<2)", cfg.NodeBytes, fanout)
	}
	if cfg.HilbertOrder > hilbert.MaxOrder {
		return nil, fmt.Errorf("rtree: Hilbert order %d above %d", cfg.HilbertOrder, hilbert.MaxOrder)
	}
	t := &Tree{cfg: cfg, root: -1, bounds: geom.EmptyRect()}
	if len(items) == 0 {
		return t, nil
	}
	t.nitems = len(items)

	t.plain = true
	for _, it := range items {
		t.bounds = t.bounds.Union(it.MBR)
		if !(it.MBR.Min.X <= it.MBR.Max.X && it.MBR.Min.Y <= it.MBR.Max.Y) {
			t.plain = false
		}
	}
	var sorted []Item
	switch cfg.Packing {
	case PackingXSort:
		sorted = slices.Clone(items)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].MBR.Center().X < sorted[j].MBR.Center().X
		})
	case PackingSTR:
		sorted = slices.Clone(items)
		strSort(sorted, fanout)
	default:
		sorted = make([]Item, len(items))
		for i, p := range hilbertOrder(items, t.bounds, cfg.HilbertOrder) {
			sorted[i] = items[p.slot]
		}
	}
	t.leaves = sorted

	// Build leaves, then each upper level, packing fanout entries per node.
	level := sorted
	rec.Op(ops.OpIndexBuildEntry, len(sorted))

	var lvl int16
	for {
		nNodes := (len(level) + fanout - 1) / fanout
		next := make([]entry, 0, nNodes)
		for i := 0; i < nNodes; i++ {
			lo := i * fanout
			hi := lo + fanout
			if hi > len(level) {
				hi = len(level)
			}
			idx := len(t.nodes)
			n := node{
				level:   lvl,
				addr:    cfg.BaseAddr + uint64(idx)*uint64(cfg.NodeBytes),
				entries: level[lo:hi:hi],
			}
			t.nodes = append(t.nodes, n)
			rec.Store(n.addr, HeaderBytes+len(n.entries)*EntryBytes)
			mbr := geom.EmptyRect()
			for _, e := range n.entries {
				mbr = mbr.Union(e.MBR)
			}
			next = append(next, entry{MBR: mbr, ID: uint32(idx)})
		}
		rec.Op(ops.OpIndexBuildEntry, len(next))
		t.height++
		if nNodes == 1 {
			t.root = int32(len(t.nodes) - 1)
			break
		}
		level = next
		lvl++
	}
	return t, nil
}

// BuildRuns builds one packed tree per run, each what Build(runs[i], cfg,
// ops.Null{}) returns, side by side on up to GOMAXPROCS goroutines. Its
// error is the first failing run's, in run order.
func BuildRuns(runs [][]Item, cfg Config) ([]*Tree, error) {
	trees := make([]*Tree, len(runs))
	errs := make([]error, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(runs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
				trees[i], errs[i] = Build(runs[i], cfg, ops.Null{})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// strSort orders items Sort-Tile-Recursively: x-sort, slice into vertical
// runs of S·fanout items (S = ⌈√(n/fanout)⌉), y-sort within each run.
func strSort(items []Item, fanout int) {
	sort.Slice(items, func(i, j int) bool {
		return items[i].MBR.Center().X < items[j].MBR.Center().X
	})
	leaves := (len(items) + fanout - 1) / fanout
	s := int(math.Ceil(math.Sqrt(float64(leaves))))
	run := s * fanout
	if run <= 0 {
		return
	}
	for lo := 0; lo < len(items); lo += run {
		hi := lo + run
		if hi > len(items) {
			hi = len(items)
		}
		tile := items[lo:hi]
		sort.Slice(tile, func(i, j int) bool {
			return tile[i].MBR.Center().Y < tile[j].MBR.Center().Y
		})
	}
}

// HilbertSort sorts items in place by the Hilbert key of their MBR centroid,
// quantized over bounds at the given curve order (0 means hilbert.Order;
// above hilbert.MaxOrder it panics), and returns the keys parallel to the
// sorted items. It is the one Hilbert recipe: Build packs in its order
// (gathering straight into its leaves, where this sorts in place) and
// shard.PartitionHilbert cuts ranges with it. The order is sort.Sort's over
// the keys, not a stable one: tied keys keep the order it gives them, which
// the pack layout of every existing tree depends on. The sort runs on up to
// GOMAXPROCS goroutines (pdqsort.go), and its order does not depend on how
// many.
func HilbertSort(items []Item, bounds geom.Rect, order uint) []uint64 {
	ps := hilbertOrder(items, bounds, order)
	keys := make([]uint64, len(ps))
	src := slices.Clone(items)
	for i, p := range ps {
		keys[i], items[i] = p.key, src[p.slot]
	}
	return keys
}

// hilbertOrder returns the items' (key, slot) pairs in pack order.
func hilbertOrder(items []Item, bounds geom.Rect, order uint) []keySlot {
	if order == 0 {
		order = hilbert.Order
	}
	q := hilbert.NewQuantizer(order, bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y)
	ps := make([]keySlot, len(items))
	for i, it := range items {
		c := it.MBR.Center()
		ps[i] = keySlot{key: q.Value(c.X, c.Y), slot: uint32(i)}
	}
	sortPairs(ps, runtime.GOMAXPROCS(0))
	return ps
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.nitems }

// Height returns the number of levels (1 for a single-leaf tree, 0 for an
// empty tree).
func (t *Tree) Height() int { return t.height }

// NodeCount returns the total number of index nodes.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// IndexBytes returns the total byte size of the index — the quantity that
// must fit in (or be shipped to) client memory.
func (t *Tree) IndexBytes() int { return len(t.nodes) * t.cfg.NodeBytes }

// Bounds returns the MBR of all indexed items.
func (t *Tree) Bounds() geom.Rect { return t.bounds }

// Fanout returns the entries-per-node capacity.
func (t *Tree) Fanout() int { return t.cfg.fanout() }

// PackOrder returns the items in Hilbert pack order. The slice is owned by
// the tree; callers must not modify it.
func (t *Tree) PackOrder() []Item { return t.leaves }

// visitNode charges one node visit: the traversal bookkeeping op plus the
// load of the node header.
func (t *Tree) visitNode(n *node, rec ops.Recorder) {
	rec.Op(ops.OpNodeVisit, 1)
	rec.Load(n.addr, HeaderBytes)
}

// scanEntry charges the examination of one entry: its load and one MBR test.
func (t *Tree) scanEntry(n *node, i int, rec ops.Recorder) {
	rec.Load(n.addr+uint64(HeaderBytes+i*EntryBytes), EntryBytes)
	rec.Op(ops.OpMBRTest, 1)
}

// idBytes is the size of one result id as the traced walk stores it.
const idBytes = 4

// Search performs the filtering step for a range (window) query: it returns
// the ids of all items whose MBR intersects the window, in ascending
// traversal order. This is the first phase of range-query processing, the
// one the paper's model prices apart from refinement; the exact answer,
// refined from the segments the leaves carry, is AppendRange.
func (t *Tree) Search(window geom.Rect, rec ops.Recorder) []uint32 {
	return t.AppendSearch(nil, window, rec)
}

// AppendSearch is Search appending into dst — the allocation-free filtering
// path for callers that own a reusable result buffer. With ops.Null there is
// no stream to record and the serving kernel (kernel.go) answers instead:
// same ids, same order.
func (t *Tree) AppendSearch(dst []uint32, window geom.Rect, rec ops.Recorder) []uint32 {
	if t.root < 0 {
		return dst
	}
	if untraced(rec) {
		return t.AppendRange(dst, nil, window, false, nil)
	}
	t.search(&t.nodes[t.root], window, rec, &dst)
	return dst
}

func (t *Tree) search(n *node, window geom.Rect, rec ops.Recorder, out *[]uint32) {
	t.visitNode(n, rec)
	for i := range n.entries {
		t.scanEntry(n, i, rec)
		if !window.Intersects(n.entries[i].MBR) {
			continue
		}
		if n.level == 0 {
			rec.Op(ops.OpResultAppend, 1)
			rec.Store(ops.ScratchBase+uint64(len(*out))*idBytes, idBytes)
			*out = append(*out, n.entries[i].ID)
		} else {
			t.search(&t.nodes[n.entries[i].ID], window, rec, out)
		}
	}
}

// SearchPoint performs the filtering step for a point query: ids of all
// items whose MBR contains p.
func (t *Tree) SearchPoint(p geom.Point, rec ops.Recorder) []uint32 {
	return t.Search(geom.Rect{Min: p, Max: p}, rec)
}

// AppendSearchPoint is SearchPoint appending into dst.
func (t *Tree) AppendSearchPoint(dst []uint32, p geom.Point, rec ops.Recorder) []uint32 {
	return t.AppendSearch(dst, geom.Rect{Min: p, Max: p}, rec)
}

// DistFunc returns the exact distance from the query point to the data item
// with the given id, used by the nearest-neighbor search for refinement of
// leaf entries. Implementations must charge their own refinement cost
// (OpRefineNN plus the data-record load) to the recorder they were built
// with.
type DistFunc = index.DistFunc

// The packed R-tree is the paper's access method; it satisfies the shared
// access-method contract.
var _ index.Index = (*Tree)(nil)

// Nearest runs the branch-and-bound nearest-neighbor search of Roussopoulos
// et al. (§3): children are visited in MINDIST order and pruned against the
// best distance found so far (with a MINMAXDIST initialization pass at each
// node). It returns the nearest item's id and its exact distance;
// ok == false when the tree is empty.
//
// As in the paper, the NN query has no separate filtering/refinement phases:
// exact item distances are computed during the traversal via dist.
func (t *Tree) Nearest(p geom.Point, dist DistFunc, rec ops.Recorder) (id uint32, d float64, ok bool) {
	return t.NearestWith(p, dist, rec, nil)
}

// NearestWith is Nearest with an optional caller-owned scratch; a nil
// scratch allocates per call exactly as Nearest always has. Both entry
// points share one traversal, so scratch reuse cannot change which of two
// equidistant items wins. (The serving pools answer 1-NN through
// KNearestCollect at k = 1; this is the simulator's instrumented NN.)
func (t *Tree) NearestWith(p geom.Point, dist DistFunc, rec ops.Recorder, sc *NNScratch) (id uint32, d float64, ok bool) {
	if t.root < 0 {
		return 0, 0, false
	}
	best := math.Inf(1)
	bestID := uint32(0)
	t.nearest(&t.nodes[t.root], p, dist, nilIfNull(rec), sc, &best, &bestID)
	return bestID, best, best < math.Inf(1)
}

// branch is one child under consideration during the NN descent.
type branch struct {
	minDist float64 // squared in the k-NN kernel
	idx     int     // entry index within the node
}

// NNScratch holds reusable traversal state for the nearest-neighbor
// searches: one branch buffer per tree level (the descent reuses a level's
// buffer sequentially — siblings are visited one after another, children use
// lower levels) and the k-NN result heap. A scratch belongs to one search at
// a time; zero value is ready to use.
type NNScratch struct {
	levels [][]branch
	heap   neighborHeap
}

// level returns the (emptied) branch buffer for tree level l.
func (sc *NNScratch) level(l int16) []branch {
	for len(sc.levels) <= int(l) {
		sc.levels = append(sc.levels, nil)
	}
	return sc.levels[l][:0]
}

// keep stores a grown buffer back so its capacity is reused.
func (sc *NNScratch) keep(l int16, br []branch) {
	sc.levels[l] = br
}

// sortBranches orders branches by ascending MINDIST. Insertion sort: node
// fanouts are small (tens of entries), it allocates nothing, and — unlike
// sort.Slice — it is deterministic on ties, so every NN entry point
// traverses identically.
func sortBranches(br []branch) {
	for i := 1; i < len(br); i++ {
		for j := i; j > 0 && br[j].minDist < br[j-1].minDist; j-- {
			br[j], br[j-1] = br[j-1], br[j]
		}
	}
}

// nearest is the NN descent. rec is nil for an untraced query (the entry
// points replace ops.Null), which skips the per-entry recorder calls; a
// traced query emits the stream it always has.
func (t *Tree) nearest(n *node, p geom.Point, dist DistFunc, rec ops.Recorder,
	sc *NNScratch, best *float64, bestID *uint32) {

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
			if n.entries[i].MBR.MinDist(p) > *best {
				continue
			}
			// Strictly-closer acceptance: best starts at +Inf, so the first
			// finite distance is accepted on sight, and of two equidistant
			// items the one the walk reaches first wins.
			d := dist(n.entries[i].ID)
			if d < *best {
				*best = d
				*bestID = n.entries[i].ID
			}
		}
		return
	}

	// Order children by MINDIST; prune with MINMAXDIST and best-so-far.
	var branches []branch
	if sc != nil {
		branches = sc.level(n.level)
	} else {
		branches = make([]branch, 0, len(n.entries))
	}
	minMaxBound := math.Inf(1)
	for i := range n.entries {
		if traced {
			t.scanEntry(n, i, rec)
			rec.Op(ops.OpDistCalc, 2) // MINDIST + MINMAXDIST
		}
		md := n.entries[i].MBR.MinDist(p)
		mmd := n.entries[i].MBR.MinMaxDist(p)
		if mmd < minMaxBound {
			minMaxBound = mmd
		}
		branches = append(branches, branch{minDist: md, idx: i})
	}
	if sc != nil {
		sc.keep(n.level, branches)
	}
	sortBranches(branches)
	if traced {
		rec.Op(ops.OpHeapOp, len(branches))
	}

	for _, br := range branches {
		// Downward prune: a subtree whose MINDIST exceeds both the best
		// exact distance found and the MINMAXDIST guarantee cannot contain
		// the nearest neighbor.
		if br.minDist > *best || br.minDist > minMaxBound {
			continue
		}
		t.nearest(&t.nodes[n.entries[br.idx].ID], p, dist, rec, sc, best, bestID)
	}
}

// Stats describes the composition of a tree, used by tests and the dataset
// report tooling.
type Stats struct {
	Items      int
	Nodes      int
	Height     int
	IndexBytes int
	Fanout     int
	LeafNodes  int
}

// TreeStats returns structural statistics.
func (t *Tree) TreeStats() Stats {
	leaves := 0
	for i := range t.nodes {
		if t.nodes[i].level == 0 {
			leaves++
		}
	}
	return Stats{
		Items:      t.nitems,
		Nodes:      len(t.nodes),
		Height:     t.height,
		IndexBytes: t.IndexBytes(),
		Fanout:     t.Fanout(),
		LeafNodes:  leaves,
	}
}
