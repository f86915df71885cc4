package router

import (
	"math/rand"
	"testing"
	"time"

	"mobispatial/internal/proto"
)

// The benchmark's cluster workload gates allocs_per_query at 5 %, and the
// router's share of that figure is the planning state of one fan-out. These
// ceilings are the counts measured at the commit before the planner was
// unified (PR 15), so the shared plan/leg/merge code cannot quietly cost
// more than the three hand-written loops it replaced. AllocsPerRun counts
// the whole process — the in-process backends' reply path and the leg
// clients included — and refresh is disabled, as in TestRouterSourceZeroAlloc,
// so the counts are the same from run to run.

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
	batch := func() {
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
	for i := 0; i < 20; i++ {
		batch()
	}
	got := testing.AllocsPerRun(200, batch)
	t.Logf("%.0f allocations per 16-query routed batch, ceiling %.0f", got, batchAllocCeiling)
	if got > batchAllocCeiling {
		t.Error("over the ceiling")
	}
}

// Measured at PR 15, six runs of six identical; the unified planner measures
// 3, 5 and 5.
const (
	rangeAllocCeilingSmall = 6.0
	rangeAllocCeilingFull  = 8.0
	batchAllocCeiling      = 67.0
)
