// Package shard is the sharded counterpart of internal/parallel: the
// dataset's segments are Hilbert-ordered (the same linearization the packed
// R-tree bulk loader uses) and cut into S contiguous runs, each bulk-loaded
// into its own packed R-tree with a precomputed shard MBR summary. Because
// Hilbert order is spatially coherent, every shard is a compact blob of the
// map, so the summaries prune aggressively: a point query usually touches
// one shard, a window query only the shards its rectangle crosses, and a
// (k-)NN query visits shards best-first by MBR min-distance and stops once
// the running k-th-neighbor bound beats the next shard's lower bound.
//
// A query runs on the goroutine that called it: the participating shards
// are walked inline in shard order, each appending straight into the
// caller's dst slice, so the warm path performs no heap allocation (see
// alloc_test.go). Hilbert-coherent cuts keep the fan-out near one shard per
// query, so parallelism belongs across queries — the serving tier's
// admission window — not inside one.
//
// Pool implements the same append-first query surface as parallel.Pool, so
// internal/serve drives either through one Executor interface.
package shard

import (
	"fmt"
	"runtime"
	"sync"

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

// shardRegionBytes is the simulated-address stride between per-shard tree
// regions: each shard's nodes are laid out in their own slice of the index
// address space so the ops/energy machinery sees distinct, non-overlapping
// node addresses per shard.
const shardRegionBytes = 1 << 26

// Config parameterizes a sharded pool.
type Config struct {
	// Shards is the number of spatial partitions; DefaultShards when <= 0.
	// Clamped to the item count so every shard holds at least one item.
	Shards int
	// Tree is the per-shard packed R-tree layout; each shard overrides
	// BaseAddr with its own address region.
	Tree rtree.Config
	// Obs receives the shard metrics (fan-out and pruning histograms, the
	// query counter, shard_count gauge); nil disables them.
	Obs *obs.Registry
	// Items, when non-nil, is the item subset to index instead of the full
	// ds.Items() — how a partitioned backend (cmd/mqserve -partition)
	// builds its pool over only the Hilbert ranges it holds. Every item id
	// must be valid in ds (ids stay cluster-global so record lookups and NN
	// refinement work unchanged on a subset). The slice is sorted in place.
	Items []rtree.Item
}

// Pool is a sharded query executor over one dataset. The shards are
// immutable after New, so all query methods are safe for any number of
// concurrent callers.
type Pool struct {
	ds *dataset.Dataset
	// trees[i] is shard i's packed R-tree over one contiguous Hilbert run
	// of items; mbrs[i] is its MBR summary, the participant-selection and
	// MINDIST-ordering predicate.
	trees  []*rtree.Tree
	mbrs   []geom.Rect
	bounds geom.Rect

	nnStates sync.Pool // *nnState

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
	ranges, bounds := PartitionHilbert(items, cfg.Shards, cfg.Tree.HilbertOrder)
	p := &Pool{ds: ds, bounds: bounds, metrics: newMetrics(cfg.Obs)}
	for i, rg := range ranges {
		tcfg := cfg.Tree
		tcfg.BaseAddr = ops.IndexBase + uint64(i)*shardRegionBytes
		tree, err := rtree.Build(rg.Items, tcfg, ops.Null{})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		p.trees = append(p.trees, tree)
		p.mbrs = append(p.mbrs, tree.Bounds())
	}

	nS := len(p.trees)
	p.nnStates.New = func() any {
		return &nnState{order: make([]IndexDist, 0, nS)}
	}
	p.metrics.shardCount.Set(float64(nS))
	return p, nil
}

// byKey sorts items by their precomputed Hilbert keys (PartitionHilbert).
type byKey struct {
	items []rtree.Item
	keys  []uint64
}

func (b *byKey) Len() int           { return len(b.items) }
func (b *byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b *byKey) Swap(i, j int) {
	b.items[i], b.items[j] = b.items[j], b.items[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// Close is a no-op: the pool owns no goroutines or other resources. It
// exists only because callers written against the pool's earlier resident
// workers (the benchmark module) still call it.
func (p *Pool) Close() {}

// Workers returns GOMAXPROCS — the width the server sizes its admission
// window from, mirroring parallel.Pool.Workers.
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

// IndexBytes returns the total byte size of all per-shard trees.
func (p *Pool) IndexBytes() int {
	n := 0
	for _, t := range p.trees {
		n += t.IndexBytes()
	}
	return n
}

// ShardStats describes one shard for reporting and tests.
type ShardStats struct {
	Items      int
	Height     int
	IndexBytes int
	MBR        geom.Rect
}

// PerShard returns per-shard structural statistics.
func (p *Pool) PerShard() []ShardStats {
	out := make([]ShardStats, len(p.trees))
	for i, t := range p.trees {
		st := t.TreeStats()
		out[i] = ShardStats{Items: st.Items, Height: st.Height, IndexBytes: st.IndexBytes, MBR: p.mbrs[i]}
	}
	return out
}
