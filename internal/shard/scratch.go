package shard

import (
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/index"
	"mobispatial/internal/rtree"
)

// NearestResult is one NN answer.
type NearestResult struct {
	ID   uint32
	Dist float64
	OK   bool
}

// NearestOf reads a 1-NN answer off a k-NN one: its first neighbor, or the
// zero result when there is none.
func NearestOf(nbs []rtree.Neighbor) NearestResult {
	if len(nbs) == 0 {
		return NearestResult{}
	}
	return NearestResult{ID: nbs[0].ID, Dist: nbs[0].Dist, OK: true}
}

// Scratch is per-caller NN query state: the index traversal buffers, the
// cross-shard visit order, and a reusable distance closure. A DistFunc built
// fresh per query captures the query point and escapes into the index's
// interface call — one hidden heap allocation per NN query. The scratch
// instead keeps one closure alive over its own mutable fields, so moving the
// query point is a field store, not an allocation. Not safe for concurrent
// use; keep one per goroutine (or per connection, as internal/serve does).
type Scratch struct {
	NN    rtree.NNScratch
	order []IndexDist // the engine's visit order for the query in progress
	pt    geom.Point
	ds    *dataset.Dataset
	df    index.DistFunc
}

// DistTo points the scratch's reusable closure at pt over ds's records and
// returns it. The closure is rebuilt only when the dataset changes, so a
// warm caller — this package's NN walk, or an updatable pool folding several
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
