// Package parallel answers spatial queries over a shared read-only index —
// the server side of the paper's architecture run as a real Go library
// rather than a simulated machine. Index traversals are pure reads, so one
// packed R-tree serves any number of goroutines; each query runs on the
// goroutine that called it, and concurrency comes from the callers (the
// networked server's admission window).
package parallel

import (
	"fmt"
	"runtime"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/index"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// Pool is one dataset and its packed R-tree behind the serving tier's query
// surface. workers only sizes Workers(), the width the server derives its
// admission window from.
type Pool struct {
	ds      *dataset.Dataset
	tree    *rtree.Tree
	workers int
}

// New builds a pool; workers <= 0 means GOMAXPROCS.
func New(ds *dataset.Dataset, tree *rtree.Tree, workers int) (*Pool, error) {
	if ds == nil || tree == nil {
		return nil, fmt.Errorf("parallel: nil dataset or index")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{ds: ds, tree: tree, workers: workers}, nil
}

// Workers returns the configured width.
func (p *Pool) Workers() int { return p.workers }

// Dataset returns the pool's dataset.
func (p *Pool) Dataset() *dataset.Dataset { return p.ds }

// Len returns the number of indexed items — the serve summary's item count.
func (p *Pool) Len() int { return p.tree.Len() }

// Bounds returns the MBR of all indexed items. The serve layer reports it in
// the partition summary the distributed tier's router prunes NN visits with.
func (p *Pool) Bounds() geom.Rect { return p.tree.Bounds() }

// NearestResult is one NN answer.
type NearestResult struct {
	ID   uint32
	Dist float64
	OK   bool
}

// The single-query API. Index traversals are pure reads, so these methods
// are safe for any number of concurrent callers — this is the interface the
// networked server (internal/serve) drives, one call per in-flight request,
// with the pool width acting as the server's natural parallelism.

// Range answers one window query (filter + exact refinement).
func (p *Pool) Range(w geom.Rect) []uint32 { return p.RangeAppend(nil, w) }

// Point answers one point query with the given incidence tolerance.
func (p *Pool) Point(pt geom.Point, eps float64) []uint32 { return p.PointAppend(nil, pt, eps) }

// FilterRange runs only the filtering step of a window query and returns the
// candidate ids — the server half of the filter-server/refine-client scheme.
func (p *Pool) FilterRange(w geom.Rect) []uint32 { return p.tree.Search(w, ops.Null{}) }

// FilterPoint runs only the filtering step of a point query.
func (p *Pool) FilterPoint(pt geom.Point) []uint32 { return p.tree.SearchPoint(pt, ops.Null{}) }

// Nearest answers one nearest-neighbor query.
func (p *Pool) Nearest(pt geom.Point) NearestResult { return p.NearestWith(pt, nil) }

// KNearest answers one k-nearest-neighbor query; ok mirrors the executor
// contract and is always true.
func (p *Pool) KNearest(pt geom.Point, k int) (neighbors []rtree.Neighbor, ok bool) {
	return p.KNearestAppend(nil, pt, k, nil)
}

// The append API. Each method writes its answer into dst's spare capacity
// and returns the extended slice, so a caller that reuses its result buffers
// (the networked server's per-request scratch) pays no allocation on a warm
// query. Answers are bit-identical to the allocating methods above — the
// scratch variants share one traversal implementation with them.

// Scratch is per-caller query state for the append API: the index traversal
// buffers plus a reusable distance closure. A DistFunc built fresh per query
// captures the query point and escapes into the index's interface call — one
// hidden heap allocation per NN query. The scratch instead keeps one closure
// alive over its own mutable fields, so moving the query point is a field
// store, not an allocation. Not safe for concurrent use; keep one per
// goroutine (or per connection, as internal/serve does).
type Scratch struct {
	NN rtree.NNScratch
	pt geom.Point
	ds *dataset.Dataset
	df index.DistFunc
}

// DistTo points the scratch's reusable closure at pt over ds's records and
// returns it. The closure is rebuilt only when the dataset changes, so a
// warm caller — this pool's NN path, or a sharded executor folding several
// per-shard trees over one dataset — pays a field store per query, never an
// allocation.
func (sc *Scratch) DistTo(ds *dataset.Dataset, pt geom.Point) index.DistFunc {
	sc.pt = pt
	if sc.df == nil || sc.ds != ds {
		sc.ds = ds
		sc.df = func(id uint32) float64 { return sc.ds.Seg(id).DistToPoint(sc.pt) }
	}
	return sc.df
}

// FilterRangeAppend appends the candidate ids of a window query to dst.
func (p *Pool) FilterRangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.tree.AppendSearch(dst, w, ops.Null{})
}

// FilterPointAppend appends the candidate ids of a point query to dst.
func (p *Pool) FilterPointAppend(dst []uint32, pt geom.Point) []uint32 {
	return p.tree.AppendSearchPoint(dst, pt, ops.Null{})
}

// RangeAppend appends the exact answer of a window query to dst: the tree's
// serving kernel with refinement fused in, so a segment is loaded only when
// its MBR straddles the window's edge.
func (p *Pool) RangeAppend(dst []uint32, w geom.Rect) []uint32 {
	return p.tree.AppendRange(dst, w, func(id uint32) bool { return p.ds.Seg(id).IntersectsRect(w) })
}

// PointAppend appends the exact answer of a point query to dst. The
// refinement step compacts candidates in place: hits are written back over
// the candidate region, so no second buffer is needed.
func (p *Pool) PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32 {
	base := len(dst)
	dst = p.FilterPointAppend(dst, pt)
	hits := dst[:base]
	for _, id := range dst[base:] {
		if p.ds.Seg(id).ContainsPoint(pt, eps) {
			hits = append(hits, id)
		}
	}
	return hits
}

// NearestWith answers one nearest-neighbor query reusing sc's traversal
// buffers; sc may be nil.
func (p *Pool) NearestWith(pt geom.Point, sc *Scratch) NearestResult {
	df, nnsc := p.scratchArgs(pt, sc)
	id, d, found := p.tree.NearestWith(pt, df, ops.Null{}, nnsc)
	return NearestResult{ID: id, Dist: d, OK: found}
}

// KNearestAppend appends one k-NN answer to dst reusing sc; the bool mirrors
// the executor contract and is always true.
func (p *Pool) KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *Scratch) ([]rtree.Neighbor, bool) {
	df, nnsc := p.scratchArgs(pt, sc)
	return p.tree.KNearestAppend(dst, pt, k, df, ops.Null{}, nnsc), true
}

func (p *Pool) scratchArgs(pt geom.Point, sc *Scratch) (index.DistFunc, *rtree.NNScratch) {
	if sc == nil {
		return func(id uint32) float64 { return p.ds.Seg(id).DistToPoint(pt) }, nil
	}
	return sc.DistTo(p.ds, pt), &sc.NN
}
