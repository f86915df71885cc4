package router

// snapshot_test.go pins the one-snapshot rule of the freshness plane under
// the busiest backends a cluster can have: the assignment table, the
// write-growth overlay and the write sequences a query routes by are one
// published value, and backends that re-cut their own shards all the while
// never change the range structure a router registered.

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/qcache"
	"mobispatial/internal/shard"
)

// TestRouterPicksUpAdaptiveCuts closes the adaptive loop across the wire: a
// monolithic backend pool splits a hot shard at runtime, and the router —
// registered when the pool had ONE shard — keeps polling it through the
// split. The new cut is local to the backend: the router keeps its one
// range, refuses no summary, sees the range's version unmoved (it counts
// writes, not recuts), and answers exactly before and after a write.
func TestRouterPicksUpAdaptiveCuts(t *testing.T) {
	ds := clusterDataset(t)
	truth := truthPool(t, ds)
	tc, pools, _ := startMutableCluster(t, ds, 1, 1, mutable.AdaptiveConfig{Enabled: true, Interval: -1, MinShardItems: 8, MaxShards: 8})
	pool := pools[0]

	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = 25 * time.Millisecond
	})
	if got := r.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d at registration, want 1", got)
	}
	v0 := r.Version(0)

	// Heat the pool until the repartitioner splits (driven by hand so the
	// test controls pacing; the EWMA fold needs wall time to see a rate).
	rng := rand.New(rand.NewSource(64))
	var buf []uint32
	deadline := time.Now().Add(15 * time.Second)
	for pool.Splits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("repartitioner never split a 6000-item pool under sustained traffic")
		}
		for i := 0; i < 64; i++ {
			buf = pool.FilterRangeAppend(buf[:0], randWindow(rng, ds.Extent, 0.05))
		}
		pool.RepartitionOnce()
		time.Sleep(20 * time.Millisecond)
	}
	if n := pool.NumShards(); n < 2 {
		t.Fatalf("pool has %d shards after a split", n)
	}

	// The refresh loop must keep polling the split pool and accept every
	// summary: the re-cut stays behind the backend's one range.
	refreshes := hub.Reg.Counter("router_refresh_total")
	deadline = time.Now().Add(10 * time.Second)
	for want := refreshes.Value() + 3; refreshes.Value() < want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("router refreshed only %d times (refresh stalled?)", refreshes.Value())
		}
	}
	if n := hub.Reg.Counter("router_refresh_errors_total").Value(); n != 0 {
		t.Fatalf("%d refresh errors: the backend's split reached the router", n)
	}
	if n := r.NumShards(); n != 1 {
		t.Fatalf("router sees %d ranges after the backend split, want 1", n)
	}
	if v := r.Version(0); v != v0 {
		t.Fatalf("range 0 version %d after a split with no writes, want %d", v, v0)
	}

	// The split pool must still route exactly.
	sc := &shard.Scratch{}
	for i := 0; i < 20; i++ {
		w := randWindow(rng, ds.Extent, 0.02+0.2*rng.Float64())
		got, err := r.RangeAppendUntil(nil, w, time.Time{})
		if err != nil {
			t.Fatalf("post-split range %d: %v", i, err)
		}
		sameIDs(t, "post-split range", got, truth.RangeAppend(nil, w))
	}
	pt := geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
	nbs, err := r.KNearestAppendUntil(nil, pt, 8, sc, time.Time{})
	if err != nil {
		t.Fatalf("post-split knn: %v", err)
	}
	want, _ := truth.KNearestAppend(nil, pt, 8, sc)
	checkNN(t, "post-split knn", ds, pt, nbs, want)

	// A write through the router lands in the split pool and advances the
	// range's version; the router still answers what the pool answers.
	to := ds.Seg(uint32(ds.Len() - 1))
	if _, _, _, err := r.ApplyMove(0, to); err != nil {
		t.Fatalf("post-split move: %v", err)
	}
	if v := r.Version(0); v <= v0 {
		t.Fatalf("range 0 version %d after a write, want > %d", v, v0)
	}
	w := to.MBR()
	got, err := r.RangeAppendUntil(nil, w, time.Time{})
	if err != nil {
		t.Fatalf("post-move range: %v", err)
	}
	sameIDs(t, "post-move range", got, pool.RangeAppend(nil, w))
	if !slices.Contains(got, 0) {
		t.Fatal("the moved object is missing at its new place")
	}
}

// TestRouterOneSnapshotUnderChurn: a hotspot that jumps across the map makes
// three partitioned R=2 adaptive backends split and merge their shards
// continuously while a 2 ms refresh loop re-polls them and a writer moves
// objects through the router. Readers of the qcache.Source surface (serve
// calls HintOf on the router for every reply) and of the fan-out must never
// panic; the router keeps its 3 ranges and refuses no summary; and once the
// churn stops (the writer having put every object back) it answers range,
// point and k-NN exactly as a flat pool over the dataset does.
func TestRouterOneSnapshotUnderChurn(t *testing.T) {
	ds := clusterDataset(t)
	truth := truthPool(t, ds)
	tc, pools, _ := startMutableCluster(t, ds, 3, 2, mutable.AdaptiveConfig{
		Enabled:         true,
		Interval:        -1,
		MinShardItems:   8,
		MaxShards:       16,
		HalfLifeSeconds: 0.15,
	})
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = 2 * time.Millisecond
	})
	repartitions := func() (n uint64) {
		for _, p := range pools {
			n += p.Splits() + p.Merges()
		}
		return n
	}

	var (
		stop   atomic.Bool
		panics atomic.Uint64
		wg     sync.WaitGroup
		hot    atomic.Pointer[geom.Point] // where the heat is right now
	)
	// hotWindow is a small window near the hotspot: the router's reads land
	// on the backends' heat counters too, so they must follow the hotspot or
	// they would spread the heat flat and stall the repartitioners.
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
					t.Errorf("reader panicked under churn: %v", p)
				}
			}
		}()
		step()
	}
	// The writer moves a few objects about; at the end they go home.
	const movers = 8
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
			if n := r.NumShards(); n != 3 {
				t.Errorf("router sees %d ranges during churn, want 3", n)
			}
		},
		func(rng *rand.Rand) {
			id := uint32(rng.Intn(movers))
			to := ds.Seg(uint32(rng.Intn(ds.Len())))
			if _, _, _, err := r.ApplyMove(id, to); err != nil {
				t.Errorf("move during churn: %v", err)
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

	// The churn: heat one small region hard on every backend, tick the
	// repartitioners, and jump the region every ~0.7 s so yesterday's
	// splits go cold and merge.
	var buf []uint32
	start := time.Now()
	lastJump := start
	for repartitions() < 20 || time.Since(start) < 3*time.Second {
		if time.Since(start) > 30*time.Second {
			break
		}
		if time.Since(lastJump) > 700*time.Millisecond {
			jump()
			lastJump = time.Now()
		}
		for _, p := range pools {
			for i := 0; i < 64; i++ {
				buf = p.FilterRangeAppend(buf[:0], hotWindow(rng))
			}
			p.RepartitionOnce()
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	var splits, merges uint64
	for _, p := range pools {
		splits, merges = splits+p.Splits(), merges+p.Merges()
	}
	t.Logf("backends: %d splits, %d merges; router: %d refreshes", splits, merges, hub.Reg.Counter("router_refresh_total").Value())
	if n := repartitions(); n < 20 {
		t.Fatalf("only %d repartitions in %v — the churn never took", n, time.Since(start))
	}
	if n := panics.Load(); n != 0 {
		t.Fatalf("%d reader panics under churn", n)
	}
	if n := hub.Reg.Counter("router_refresh_errors_total").Value(); n != 0 {
		t.Fatalf("%d refresh errors: a backend's re-cut reached the router", n)
	}
	if n := r.NumShards(); n != 3 || hub.Reg.Gauge("router_ranges").Value() != 3 {
		t.Fatalf("router sees %d ranges after the churn, want 3", n)
	}

	// Quiescent: every mover goes home, and the router answers exactly what
	// a flat pool over the dataset answers.
	for id := uint32(0); id < movers; id++ {
		if _, _, _, err := r.ApplyMove(id, ds.Seg(id)); err != nil {
			t.Fatalf("move %d home: %v", id, err)
		}
	}
	sc := &shard.Scratch{}
	for i := 0; i < 20; i++ {
		w := randWindow(rng, ds.Extent, 0.02+0.2*rng.Float64())
		got, err := r.RangeAppendUntil(nil, w, time.Time{})
		if err != nil {
			t.Fatalf("post-churn range %d: %v", i, err)
		}
		sameIDs(t, "post-churn range", got, truth.RangeAppend(nil, w))

		pt := ds.Seg(uint32(rng.Intn(ds.Len()))).A
		got, err = r.PointAppendUntil(nil, pt, 25, time.Time{})
		if err != nil {
			t.Fatalf("post-churn point %d: %v", i, err)
		}
		sameIDs(t, "post-churn point", got, truth.PointAppend(nil, pt, 25))

		pt = geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
		nbs, err := r.KNearestAppendUntil(nil, pt, 8, sc, time.Time{})
		if err != nil {
			t.Fatalf("post-churn knn %d: %v", i, err)
		}
		want, _ := truth.KNearestAppend(nil, pt, 8, sc)
		checkNN(t, "post-churn knn", ds, pt, nbs, want)
	}
}
