package router

// snapshot_test.go pins the one-snapshot rule of the freshness plane: the
// assignment table, the write-growth overlay and the write sequences a query
// routes by are one published value, so a structural refresh (an adaptive
// backend split or merged a range) can never be observed half-applied.

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/serve"
	"mobispatial/internal/shard"
)

// startAdaptiveBackend serves one monolithic adaptive mutable pool — the
// only kind of backend whose range set changes at runtime — with the
// repartitioner's ticks left to the caller (RepartitionOnce).
func startAdaptiveBackend(t testing.TB, ds *dataset.Dataset, ad mutable.AdaptiveConfig) (*testCluster, *mutable.Pool) {
	t.Helper()
	ranges, bounds := shard.PartitionHilbert(ds.Items(), 1, 0)
	ad.Enabled, ad.Interval = true, -1
	pool, err := mutable.New(mutable.Config{
		Dataset:         ds,
		Ranges:          ranges,
		Cuts:            []uint64{ranges[0].Lo},
		GlobalIndex:     []int{0},
		Bounds:          bounds,
		CompactInterval: -1,
		Adaptive:        ad,
	})
	if err != nil {
		t.Fatalf("adaptive pool: %v", err)
	}
	t.Cleanup(pool.Close)
	infos := []proto.RangeInfo{{
		Index: 0,
		Items: uint32(len(ranges[0].Items)),
		Lo:    ranges[0].Lo,
		Hi:    ranges[0].Hi,
		MBR:   ranges[0].MBR,
	}}
	srv, err := serve.New(serve.Config{Pool: pool, Ranges: infos, NumRanges: 1})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return &testCluster{ds: ds, ranges: ranges, addrs: []string{lis.Addr().String()}, servers: []*serve.Server{srv}}, pool
}

// TestRouterOneSnapshotUnderChurn: a hotspot that jumps across the map makes
// the backend split and merge continuously while a 2 ms refresh loop swaps
// each new cut table in. Readers of the qcache.Source surface (serve calls
// HintOf on the router for every reply) and of the fan-out must never index
// one snapshot's ranges into another's — no panic, whatever interleaving —
// and once the churn stops the router still answers exactly.
func TestRouterOneSnapshotUnderChurn(t *testing.T) {
	ds := clusterDataset(t)
	tc, pool := startAdaptiveBackend(t, ds, mutable.AdaptiveConfig{
		MinShardItems:   8,
		MaxShards:       16,
		HalfLifeSeconds: 0.15,
	})
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = 2 * time.Millisecond
	})
	structural := hub.Reg.Counter("router_refresh_structural_total")

	var (
		stop   atomic.Bool
		panics atomic.Uint64
		wg     sync.WaitGroup
		hot    atomic.Pointer[geom.Point] // where the heat is right now
	)
	// hotWindow is a small window near the hotspot: the router's reads land
	// on the backend's heat counters too, so they must follow the hotspot or
	// they would spread the heat flat and stall the repartitioner.
	hotWindow := func(rng *rand.Rand) geom.Rect {
		h := *hot.Load()
		c := geom.Point{X: h.X + (rng.Float64()-0.5)*400, Y: h.Y + (rng.Float64()-0.5)*400}
		return geom.Rect{Min: c, Max: c}.Expand(200)
	}
	// guarded runs one reader step; a torn snapshot shows up as an index
	// out of range inside it.
	guarded := func(step func()) {
		defer func() {
			if p := recover(); p != nil {
				if panics.Add(1) == 1 {
					t.Errorf("reader panicked across a structural refresh: %v", p)
				}
			}
		}()
		step()
	}
	readers := []func(rng *rand.Rand){
		func(*rand.Rand) { qcache.HintOf(r) },
		func(rng *rand.Rand) {
			var v qcache.View
			qcache.BuildView(r, randWindow(rng, ds.Extent, 0.1), &v)
		},
		func(rng *rand.Rand) {
			if _, err := r.RangeAppendUntil(nil, hotWindow(rng), time.Time{}); err != nil {
				t.Errorf("range query during churn: %v", err)
			}
		},
	}
	rng := rand.New(rand.NewSource(64))
	jump := func() {
		pt := ds.Seg(uint32(rng.Intn(ds.Len()))).Midpoint()
		hot.Store(&pt)
	}
	jump()
	for i, step := range readers {
		wg.Add(1)
		go func(seed int64, step func(*rand.Rand)) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				guarded(func() { step(rng) })
			}
		}(int64(i+1), step)
	}

	// The churn: heat one small region hard, tick the repartitioner, and
	// jump the region every ~0.7 s so yesterday's splits go cold and merge.
	var buf []uint32
	start := time.Now()
	lastJump := start
	for structural.Value() < 20 || time.Since(start) < 3*time.Second {
		if time.Since(start) > 30*time.Second {
			break
		}
		if time.Since(lastJump) > 700*time.Millisecond {
			jump()
			lastJump = time.Now()
		}
		for i := 0; i < 64; i++ {
			buf = pool.FilterRangeAppend(buf[:0], hotWindow(rng))
		}
		pool.RepartitionOnce()
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("pool: %d splits, %d merges; router: %d structural of %d refreshes", pool.Splits(), pool.Merges(), structural.Value(), hub.Reg.Counter("router_refresh_total").Value())
	if n := structural.Value(); n < 20 {
		t.Fatalf("only %d structural refreshes in %v — the churn never reached the router", n, time.Since(start))
	}
	if n := panics.Load(); n != 0 {
		t.Fatalf("%d reader panics across %d structural refreshes", n, structural.Value())
	}

	// Quiescent: the topology is frozen now; the router catches up and
	// answers exactly what the pool answers.
	deadline := time.Now().Add(10 * time.Second)
	for r.NumShards() != pool.NumShards() {
		if time.Now().After(deadline) {
			t.Fatalf("router sees %d ranges, backend has %d shards", r.NumShards(), pool.NumShards())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		w := randWindow(rng, ds.Extent, 0.02+0.2*rng.Float64())
		got, err := r.RangeAppendUntil(nil, w, time.Time{})
		if err != nil {
			t.Fatalf("post-churn range %d: %v", i, err)
		}
		sameIDs(t, "post-churn range", got, pool.RangeAppend(nil, w))
	}
	sameKNN(t, "post-churn knn", r, pool, geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}, 8)
}

// sameKNN compares the router's k-NN answer with the backend pool's by
// distance (ties may order ids differently).
func sameKNN(t *testing.T, label string, r *Router, pool *mutable.Pool, pt geom.Point, k int) {
	t.Helper()
	got, err := r.KNearestAppendUntil(nil, pt, k, nil, time.Time{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, _ := pool.KNearestAppend(nil, pt, k, nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s rank %d: dist %v, want %v", label, i, got[i].Dist, want[i].Dist)
		}
	}
}
