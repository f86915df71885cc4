package router

// refresh_test.go exercises the freshness plane the router builds on top of
// its registration snapshot: the background summary re-poll (writes applied
// directly at a backend become routable without this router seeing them; a
// summary of another range structure is refused), the qcache.Source surface
// (per-range version vector + conservative bounds), and the router-tier
// result cache wired through the serve layer.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/serve"
)

// TestRouterRefreshSeesDirectWrites: a write applied straight at a backend
// pool — bypassing this router entirely, as a second router or an operator
// backfill would — must become visible here within a few refresh periods.
// The growth overlay can't help (this router never saw the write); only the
// summary re-poll carries the backend's widened MBR and bumped version back.
func TestRouterRefreshSeesDirectWrites(t *testing.T) {
	ds := clusterDataset(t)
	const emptyRg = 2
	tc, pools, _, stripped := startSparseCluster(t, ds, 4, emptyRg)
	r := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = 30 * time.Millisecond })

	id := uint32(ds.Len() + 202)
	seg := ds.Seg(stripped[2].ID)
	if _, _, owned, err := pools[emptyRg].ApplyMove(id, seg); err != nil || !owned {
		t.Fatalf("direct backend insert: owned=%v err=%v", owned, err)
	}

	v0 := r.Version(emptyRg)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ids, err := r.RangeAppendUntil(nil, seg.MBR(), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if containsU32(ids, id) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("direct write %d never became routable (refresh stalled?)", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The re-polled summary must also have moved the range's version, so a
	// result cache keyed on this router's version vector invalidates too.
	waitV := time.Now().Add(10 * time.Second)
	for r.Version(emptyRg) == v0 {
		if time.Now().After(waitV) {
			t.Fatalf("range %d version stuck at %d after a backend write", emptyRg, v0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRefreshRefusesStructuralChange: the range structure a router registered
// is the cluster's for good. A backend whose summary starts reporting another
// range count — or the same count at other key cuts — is refused at every
// refresh: the table keeps its registered structure and each refusal counts
// in router_refresh_errors_total.
func TestRefreshRefusesStructuralChange(t *testing.T) {
	ds := clusterDataset(t)
	row := func(idx uint32, lo uint64) proto.RangeInfo {
		return proto.RangeInfo{Index: idx, Items: 1, Lo: lo, Hi: lo, MBR: ds.Extent}
	}
	var current atomic.Pointer[proto.SummaryMsg]
	current.Store(&proto.SummaryMsg{NumRanges: 2, Ranges: []proto.RangeInfo{row(0, 0), row(1, 100)}})
	hub := obs.NewHub()
	r, err := New(Config{
		Backends:        []string{stalledBackend(t, func() proto.SummaryMsg { return *current.Load() })},
		Dataset:         ds,
		RefreshInterval: 5 * time.Millisecond,
		RegisterTimeout: 15 * time.Second,
		Obs:             hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	errs := hub.Reg.Counter("router_refresh_errors_total")

	for _, tc := range []struct {
		name string
		sm   proto.SummaryMsg
	}{
		{"range count", proto.SummaryMsg{NumRanges: 3, Ranges: []proto.RangeInfo{row(0, 0), row(1, 100), row(2, 200)}}},
		{"key cuts", proto.SummaryMsg{NumRanges: 2, Ranges: []proto.RangeInfo{row(0, 0), row(1, 200)}}},
	} {
		current.Store(&tc.sm)
		for want, deadline := errs.Value()+3, time.Now().Add(10*time.Second); errs.Value() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the changed summary was never refused", tc.name)
			}
		}
		if s := r.snap(); s.numRanges != 2 || !slices.Equal(s.keyLo, []uint64{0, 100}) {
			t.Fatalf("%s: table has %d ranges at cuts %v, registered 2 at [0 100]", tc.name, s.numRanges, s.keyLo)
		}
		if n := hub.Reg.Gauge("router_ranges").Value(); n != 2 {
			t.Fatalf("%s: router_ranges %v, want 2", tc.name, n)
		}
	}
}

// TestRouterRangeVersionCountsWrites: a range's version counts the writes
// applied to it. A backend that compacts with no write in between keeps it
// unmoved through the router's refreshes, and the router accepts every such
// summary; a write routed through the router advances it, and the router
// still answers what the pool answers.
func TestRouterRangeVersionCountsWrites(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, _ := startMutableCluster(t, ds, 1, 1)
	pool := pools[0]
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = 25 * time.Millisecond
	})
	refreshes := hub.Reg.Counter("router_refresh_total")
	waitRefreshes := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for want := refreshes.Value() + n; refreshes.Value() < want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("router refreshed only %d times (refresh stalled?)", refreshes.Value())
			}
		}
	}

	// One write, then a compaction folding it: the version moves with the
	// write and not with the compaction.
	if _, _, _, err := r.ApplyMove(1, ds.Seg(2)); err != nil {
		t.Fatalf("move: %v", err)
	}
	waitRefreshes(2)
	v1 := r.Version(0)
	if pool.ForceCompact(); pool.Epoch(0) == 0 {
		t.Fatal("the compaction did not run")
	}
	waitRefreshes(3)
	if n := hub.Reg.Counter("router_refresh_errors_total").Value(); n != 0 {
		t.Fatalf("%d refresh errors across a compaction", n)
	}
	if n := r.NumShards(); n != 1 {
		t.Fatalf("router sees %d ranges after the compaction, want 1", n)
	}
	if v := r.Version(0); v != v1 {
		t.Fatalf("range 0 version %d after a compaction with no writes, want %d", v, v1)
	}

	// A routed write advances it, and lands where a read finds it.
	to := ds.Seg(uint32(ds.Len() - 1))
	if _, _, _, err := r.ApplyMove(0, to); err != nil {
		t.Fatalf("move: %v", err)
	}
	if v := r.Version(0); v <= v1 {
		t.Fatalf("range 0 version %d after a write, want > %d", v, v1)
	}
	w := to.MBR()
	got, err := r.RangeAppendUntil(nil, w, time.Time{})
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	sameIDs(t, "post-move range", got, pool.RangeAppend(nil, w))
	if !slices.Contains(got, 0) {
		t.Fatal("the moved object is missing at its new place")
	}
}

// TestRouterSourceVersions pins the Source contract the result cache keys
// on: a write routed through the router bumps the touched range's version
// immediately (before the next refresh lands), and the conservative bounds
// cover the written geometry.
func TestRouterSourceVersions(t *testing.T) {
	ds := clusterDataset(t)
	const emptyRg = 2
	tc, _, _, stripped := startSparseCluster(t, ds, 4, emptyRg)
	r := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })

	if got := r.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	before := make([]uint64, 4)
	for i := range before {
		before[i] = r.Version(i)
	}
	seg := ds.Seg(stripped[0].ID)
	if _, _, _, err := r.ApplyMove(uint32(ds.Len()+303), seg); err != nil {
		t.Fatal(err)
	}
	if got := r.Version(emptyRg); got <= before[emptyRg] {
		t.Fatalf("range %d version %d did not advance past %d after a routed write",
			emptyRg, got, before[emptyRg])
	}
	if !r.ShardBounds(emptyRg).Intersects(seg.MBR()) {
		t.Fatalf("ShardBounds(%d) = %v does not cover the routed write %v",
			emptyRg, r.ShardBounds(emptyRg), seg.MBR())
	}
	for i := 0; i < 4; i++ {
		if i != emptyRg && r.Version(i) != before[i] {
			t.Fatalf("untouched range %d version moved %d -> %d", i, before[i], r.Version(i))
		}
	}
}

// TestRouterSourceZeroAlloc: building a validity view over the router — the
// per-query freshness check on the cache hit path — must not allocate.
// Refresh is disabled so AllocsPerRun (a process-global malloc count) sees
// only the view build itself.
func TestRouterSourceZeroAlloc(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })

	rng := rand.New(rand.NewSource(7))
	w := randWindow(rng, ds.Extent, 0.1)
	var v qcache.View
	qcache.BuildView(r, w, &v)
	allocs := testing.AllocsPerRun(200, func() {
		qcache.BuildView(r, w, &v)
	})
	if allocs != 0 {
		t.Fatalf("BuildView over the router allocates %.1f times per call, want 0", allocs)
	}
}

// TestRouterCacheEquivalenceUnderWrites wires the full stack the way
// mqrouter -qcache does — client -> serve.Server{Pool: Router, Cache} ->
// backends — and checks that cached answers stay identical to the router's
// own uncached fan-out while writes interleave with a repeated hotspot, and
// that the hotspot actually hits the cache.
func TestRouterCacheEquivalenceUnderWrites(t *testing.T) {
	ds := clusterDataset(t)
	tc, _, _ := startMutableCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	qc := qcache.New(qcache.Config{MaxBytes: 8 << 20})
	srv, c := dial(t, serve.Config{Pool: r, Cache: qc}, 1)

	rng := rand.New(rand.NewSource(99))
	hot := make([]geom.Rect, 4)
	for i := range hot {
		hot[i] = randWindow(rng, ds.Extent, 0.05)
	}
	for round := 0; round < 6; round++ {
		for wi, w := range hot {
			got, err := c.RangeIDs(w)
			if err != nil {
				t.Fatalf("round %d window %d: %v", round, wi, err)
			}
			want, err := r.RangeAppendUntil(nil, w, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			sameIDs(t, fmt.Sprintf("round %d window %d", round, wi), got, want)
		}
		// A write into the hottest window: the very next cached read must
		// include it — per-range version invalidation end to end.
		id := uint32(ds.Len() + 400 + round)
		cx := (hot[0].Min.X + hot[0].Max.X) / 2
		cy := (hot[0].Min.Y + hot[0].Max.Y) / 2
		seg := geom.Segment{A: geom.Point{X: cx, Y: cy}, B: geom.Point{X: cx + 5, Y: cy + 5}}
		if _, err := c.Move(id, seg); err != nil {
			t.Fatalf("round %d insert: %v", round, err)
		}
		got, err := c.RangeIDs(hot[0])
		if err != nil {
			t.Fatal(err)
		}
		if !containsU32(got, id) {
			t.Fatalf("round %d: cached hotspot read missed the write %d acked just before it", round, id)
		}
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Fatalf("repeated hotspot never hit the router-tier cache: %+v", st)
	}
}
