package router

// snapshot_test.go pins the one-snapshot rule of the freshness plane under
// the busiest backends a cluster can have: the assignment table, the
// write-growth overlay and the write sequences a query routes by are one
// published value, and backends that write and compact all the while never
// change the range structure a router registered.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/qcache"
	"mobispatial/internal/shard"
)

// TestRouterOneSnapshotUnderChurn: three partitioned R=2 backends take
// routed moves and compact their shards continuously while a 2 ms refresh
// loop re-polls them, so every summary carries fresh versions and MBRs.
// Readers of the qcache.Source surface (serve calls HintOf on the router for
// every reply) and of the fan-out must never panic; the router keeps its 3
// ranges and refuses no summary; and once the churn stops (the writers having
// put every object back) it answers range, point and k-NN exactly as a flat
// pool over the dataset does.
func TestRouterOneSnapshotUnderChurn(t *testing.T) {
	ds := clusterDataset(t)
	truth := truthPool(t, ds)
	tc, pools, _ := startMutableCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = 2 * time.Millisecond
	})
	compactions := func() (n uint64) {
		for _, p := range pools {
			for i := 0; i < p.NumShards(); i++ {
				n += p.Epoch(i)
			}
		}
		return n
	}

	var (
		stop   atomic.Bool
		panics atomic.Uint64
		wg     sync.WaitGroup
	)
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
	// The writers move a few objects about; at the end they go home.
	const movers = 8
	move := func(rng *rand.Rand) {
		id := uint32(rng.Intn(movers))
		to := ds.Seg(uint32(rng.Intn(ds.Len())))
		if _, _, _, err := r.ApplyMove(id, to); err != nil {
			t.Errorf("move during churn: %v", err)
		}
	}
	readers := []func(rng *rand.Rand){
		func(*rand.Rand) { qcache.HintOf(r) },
		func(rng *rand.Rand) {
			var v qcache.View
			qcache.BuildView(r, randWindow(rng, ds.Extent, 0.1), &v)
		},
		func(rng *rand.Rand) {
			if _, err := r.RangeAppendUntil(nil, randWindow(rng, ds.Extent, 0.05), time.Time{}); err != nil {
				t.Errorf("range query during churn: %v", err)
			}
			if n := r.NumShards(); n != 3 {
				t.Errorf("router sees %d ranges during churn, want 3", n)
			}
		},
		move,
	}
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

	// The churn: every tick a burst of routed moves, then one shard of each
	// backend compacted, every fourth tick all of them.
	rng := rand.New(rand.NewSource(64))
	start := time.Now()
	for tick := 0; compactions() < 20 || time.Since(start) < time.Second; tick++ {
		if time.Since(start) > 30*time.Second {
			break
		}
		for i := 0; i < 16; i++ {
			move(rng)
		}
		for _, p := range pools {
			if tick%4 == 0 {
				p.ForceCompact()
			} else {
				p.CompactShard(rng.Intn(p.NumShards()))
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("backends: %d compactions; router: %d refreshes", compactions(), hub.Reg.Counter("router_refresh_total").Value())
	if n := compactions(); n < 20 {
		t.Fatalf("only %d compactions in %v — the churn never took", n, time.Since(start))
	}
	if n := panics.Load(); n != 0 {
		t.Fatalf("%d reader panics under churn", n)
	}
	if n := hub.Reg.Counter("router_refresh_errors_total").Value(); n != 0 {
		t.Fatalf("%d refresh errors under churn", n)
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
