package router

import (
	"math/rand"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// The benchmark's cluster workload gates allocs_per_query at 5 %, and the
// router's share of that figure is the planning state of one fan-out. These
// ceilings are the measured counts, so the plan/leg/merge code cannot
// quietly cost more. AllocsPerRun counts the whole process — the in-process
// backends' reply path and the leg clients included — and refresh is
// disabled, as in TestRouterSourceZeroAlloc, so the counts are the same from
// run to run.

// TestRouterRangeAllocCeiling: one routed range query, a window small enough
// for one leg and the full extent (every range, so legs on goroutines).
func TestRouterRangeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })

	rng := rand.New(rand.NewSource(71))
	for _, tt := range []struct {
		name    string
		frac    float64
		ceiling float64
	}{
		{"small window", 0.02, rangeAllocCeilingSmall},
		{"full extent", 1, rangeAllocCeilingFull},
	} {
		w := randWindow(rng, ds.Extent, tt.frac)
		var dst []uint32
		query := func() {
			var err error
			if dst, err = r.RangeAppendUntil(dst[:0], w, time.Time{}); err != nil {
				t.Fatalf("%s: %v", tt.name, err)
			}
		}
		for i := 0; i < 20; i++ {
			query() // warm every pool on the path
		}
		got := testing.AllocsPerRun(300, query)
		t.Logf("%s: %.0f allocations per routed range query, ceiling %.0f", tt.name, got, tt.ceiling)
		if got > tt.ceiling {
			t.Errorf("%s: over the ceiling", tt.name)
		}
	}
}

// TestRouterBatchAllocCeiling: one 16-query routed batch of ranges, filters
// and points through RunQueryBatch, the item slices reused as serve reuses
// them.
func TestRouterBatchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })

	qs := mixedBatch(rand.New(rand.NewSource(72)), ds.Extent, 16)
	items := make([]proto.BatchItem, len(qs))
	batch := func() { rerunBatch(t, r, qs, items) }
	for i := 0; i < 20; i++ {
		batch()
	}
	got := testing.AllocsPerRun(200, batch)
	t.Logf("%.0f allocations per 16-query routed batch, ceiling %.0f", got, batchAllocCeiling)
	if got > batchAllocCeiling {
		t.Error("over the ceiling")
	}
}

// rerunBatch answers qs into items the way serve reuses them — the id slices
// kept, the outcome cleared — and fails on any item error.
func rerunBatch(t *testing.T, r *Router, qs []proto.QueryMsg, items []proto.BatchItem) {
	t.Helper()
	for i := range items {
		items[i].IDs, items[i].Err, items[i].Text = items[i].IDs[:0], 0, ""
	}
	r.RunQueryBatch(qs, items, time.Time{})
	for i := range items {
		if items[i].Err != 0 {
			t.Fatalf("item %d: code %d (%s)", i, items[i].Err, items[i].Text)
		}
	}
}

// TestRouterNNAllocCeiling: one routed 8-NN, and a 16-query batch whose every
// fourth sub-query is one — the NN sub-queries of a batch ride the grouped
// legs and go on in the call's own scratch, writing their ids straight into
// the items, so they add nothing per sub-query.
func TestRouterNNAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })

	rng := rand.New(rand.NewSource(73))
	randPt := func() geom.Point { return geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()} }
	pt := randPt()
	var nbrs []rtree.Neighbor
	knn := func() {
		var err error
		if nbrs, err = r.KNearestAppendUntil(nbrs[:0], pt, 8, nil, time.Time{}); err != nil || len(nbrs) != 8 {
			t.Fatalf("knn: %d neighbors, %v", len(nbrs), err)
		}
	}
	qs := mixedBatch(rng, ds.Extent, 16)
	for i := 3; i < len(qs); i += 4 {
		qs[i] = proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: randPt(), K: 8}
	}
	items := make([]proto.BatchItem, len(qs))
	batch := func() { rerunBatch(t, r, qs, items) }
	for _, tt := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"routed 8-NN", knn, nnAllocCeiling},
		{"16-query batch, 4 of them 8-NN", batch, nnBatchAllocCeiling},
	} {
		for i := 0; i < 20; i++ {
			tt.run()
		}
		got := testing.AllocsPerRun(200, tt.run)
		t.Logf("%s: %.0f allocations, ceiling %.0f", tt.name, got, tt.ceiling)
		if got > tt.ceiling {
			t.Errorf("%s: over the ceiling", tt.name)
		}
	}
}

// The measured counts, five runs of five identical.
const (
	rangeAllocCeilingSmall = 0.0
	rangeAllocCeilingFull  = 2.0
	batchAllocCeiling      = 2.0
	nnAllocCeiling         = 0.0
	nnBatchAllocCeiling    = 2.0
)
