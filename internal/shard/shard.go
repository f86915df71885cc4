// Package shard is the read-only local query engine: S >= 1 packed R-trees,
// each with a precomputed MBR summary, behind the serving tier's append-first
// query surface. New Hilbert-orders the dataset's segments (the same
// linearization the packed R-tree bulk loader uses) and cuts them into S
// contiguous runs, one tree per run; Over wraps one tree somebody else built
// — the unsharded server is this engine at S = 1. Because Hilbert order is
// spatially coherent, every shard is a compact blob of the map, so the
// summaries prune aggressively: a point query usually touches one shard, a
// window query only the shards its rectangle crosses, and a (k-)NN query
// visits shards best-first by MBR min-distance and stops once the running
// k-th-neighbor bound beats the next shard's lower bound.
//
// A query runs on the goroutine that called it: the participating shards
// are walked inline in shard order, each appending straight into the
// caller's dst slice, so the warm path performs no heap allocation (see
// alloc_test.go). Hilbert-coherent cuts keep the fan-out near one shard per
// query, so parallelism belongs across queries — the serving tier's
// admission window — not inside one.
package shard

import (
	"fmt"
	"runtime"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// DefaultShards is the shard count when Config.Shards is unset: small
// enough that per-shard trees stay several levels deep on the paper's
// datasets, large enough that the shard MBRs prune most of the map.
const DefaultShards = 16

// Config parameterizes a sharded pool.
type Config struct {
	// Shards is the number of spatial partitions; DefaultShards when <= 0.
	// Clamped to the item count so every shard holds at least one item.
	Shards int
	// Obs receives the shard metrics (fan-out and pruning histograms, the
	// query counter, shard_count gauge); nil disables them.
	Obs *obs.Registry
	// Items, when non-nil, is the item subset to index instead of the full
	// ds.Items() — how a partitioned backend (cmd/mqserve -partition)
	// builds its pool over only the Hilbert ranges it holds. Every item id
	// must be valid in ds (ids stay cluster-global so record lookups work
	// unchanged on a subset), and every item must carry its segment
	// (rtree.SegItem, as ds.Items and PartitionHilbert's ranges of it do):
	// the trees refine from their leaves. The slice is sorted in place.
	Items []rtree.Item
}

// Pool is the frozen query executor over one dataset. The shards are
// immutable once built, so all query methods are safe for any number of
// concurrent callers.
type Pool struct {
	ds *dataset.Dataset
	// trees[i] is shard i's packed R-tree over one contiguous Hilbert run
	// of items; mbrs[i] is its MBR summary, the participant-selection and
	// MINDIST-ordering predicate.
	trees  []*rtree.Tree
	mbrs   []geom.Rect
	bounds geom.Rect

	metrics metrics
}

// New Hilbert-orders the dataset's items and builds one packed R-tree per
// shard.
func New(ds *dataset.Dataset, cfg Config) (*Pool, error) {
	if ds == nil {
		return nil, fmt.Errorf("shard: nil dataset")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}

	items := cfg.Items
	if items == nil {
		items = ds.Items()
	}
	// PartitionHilbert is the one cut recipe: the pool's local shards and
	// the cluster tier's ranges are the same contiguous Hilbert runs.
	ranges, bounds := PartitionHilbert(items, cfg.Shards, 0)
	trees := make([]*rtree.Tree, len(ranges))
	for i, rg := range ranges {
		// Every walk of these trees runs under ops.Null, so the simulated
		// node addresses are never read and the shards may share a region.
		tree, err := rtree.Build(rg.Items, rtree.Config{}, ops.Null{})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		trees[i] = tree
	}
	return newPool(ds, trees, bounds, cfg.Obs), nil
}

// Over is the engine with one shard: the given tree, not a copy of it. The
// unsharded server runs on it so that queries and shipments (which carve
// sub-indexes from the master tree) share one index in memory.
func Over(ds *dataset.Dataset, tree *rtree.Tree) (*Pool, error) {
	if ds == nil || tree == nil {
		return nil, fmt.Errorf("shard: nil dataset or index")
	}
	return newPool(ds, []*rtree.Tree{tree}, tree.Bounds(), nil), nil
}

func newPool(ds *dataset.Dataset, trees []*rtree.Tree, bounds geom.Rect, reg *obs.Registry) *Pool {
	p := &Pool{ds: ds, trees: trees, bounds: bounds, metrics: newMetrics(reg)}
	for _, t := range trees {
		p.mbrs = append(p.mbrs, t.Bounds())
	}
	p.metrics.shardCount.Set(float64(len(trees)))
	return p
}

// Close is a no-op: the pool owns no goroutines or other resources. It
// exists only because callers written against the pool's earlier resident
// workers (the benchmark module) still call it.
func (p *Pool) Close() {}

// Workers returns GOMAXPROCS — the width the server sizes its admission
// window from.
func (p *Pool) Workers() int { return runtime.GOMAXPROCS(0) }

// Dataset returns the pool's dataset.
func (p *Pool) Dataset() *dataset.Dataset { return p.ds }

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.trees) }

// Bounds returns the MBR of all indexed items.
func (p *Pool) Bounds() geom.Rect { return p.bounds }

// Len returns the number of indexed items across all shards.
func (p *Pool) Len() int {
	n := 0
	for _, t := range p.trees {
		n += t.Len()
	}
	return n
}
