package router

// legs_test.go pins what a routed read costs in backend legs, by kind: a
// k-NN asks one holder per range it cannot prune (not every backend), and a
// window asks the holder that covers the most of it.

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"mobispatial/internal/faultlink"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// legCounter reads the router's per-backend leg counters.
type legCounter struct {
	cs   []*obs.Counter
	last []uint64
}

func newLegCounter(hub *obs.Hub, tc *testCluster) *legCounter {
	lc := &legCounter{last: make([]uint64, len(tc.addrs))}
	for _, addr := range tc.addrs {
		lc.cs = append(lc.cs, hub.Reg.Counter(obs.Name("router_backend_legs_total", "backend", addr)))
	}
	return lc
}

// since returns the legs each backend took since the previous call.
func (lc *legCounter) since() []uint64 {
	d := make([]uint64, len(lc.cs))
	for b, c := range lc.cs {
		v := c.Value()
		d[b], lc.last[b] = v-lc.last[b], v
	}
	return d
}

func sum(xs []uint64) (n uint64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// nnLegs runs 500 seeded points × k ∈ {1, 8, 64} against the flat oracle and
// returns the total legs and the most backends one query contacted.
func nnLegs(t *testing.T, r *Router, lc *legCounter, tc *testCluster, pool *shard.Pool) (total uint64, queries, worst int) {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	sc := &shard.Scratch{}
	lc.since()
	for i := 0; i < 500; i++ {
		pt := geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
		for _, k := range []int{1, 8, 64} {
			got, err := r.KNearestAppendUntil(nil, pt, k, sc, time.Time{})
			if err != nil {
				t.Fatalf("pt %d k %d: %v", i, k, err)
			}
			want, _ := pool.KNearestAppend(nil, pt, k, sc)
			checkNN(t, "knn", tc.ds, pt, got, want)
			contacted := 0
			for _, n := range lc.since() {
				total += n
				if n > 1 {
					t.Fatalf("pt %d k %d: one backend took %d legs of one k-NN", i, k, n)
				}
				contacted += int(n)
			}
			queries++
			worst = max(worst, contacted)
		}
	}
	return total, queries, worst
}

// TestRouterNNLegs: at R = 2 over three backends any two backends hold every
// range, so no k-NN may contact a third, and the bound prunes most second
// legs. At R = 1 the holders are disjoint — range space is backend space —
// and the visit costs exactly what the backend-space visit cost.
func TestRouterNNLegs(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)

	t.Run("R=2", func(t *testing.T) {
		tc := startCluster(t, ds, 3, 2)
		hub := obs.NewHub()
		r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })
		total, queries, worst := nnLegs(t, r, newLegCounter(hub, tc), tc, pool)
		mean := float64(total) / float64(queries)
		t.Logf("%.3f legs per k-NN, at most %d", mean, worst)
		if worst > 2 {
			t.Errorf("a k-NN contacted %d backends; two hold every range", worst)
		}
		if mean > 1.5 {
			t.Errorf("%.3f legs per k-NN, want ≤ 1.5", mean)
		}
		visited := hub.Reg.Counter("router_nn_backends_visited_total").Value()
		pruned := hub.Reg.Counter("router_nn_backends_pruned_total").Value()
		if visited != total || visited+pruned != uint64(3*queries) {
			t.Errorf("counters: %d visited + %d pruned over %d queries that took %d legs; want visited = legs and visited + pruned = 3 per query",
				visited, pruned, queries, total)
		}
	})

	t.Run("R=1", func(t *testing.T) {
		tc := startCluster(t, ds, 4, 1)
		hub := obs.NewHub()
		r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })
		total, queries, _ := nnLegs(t, r, newLegCounter(hub, tc), tc, pool)
		t.Logf("%.3f legs per k-NN", float64(total)/float64(queries))
		// Read at the commit before the visit moved to range space.
		const parent = 2128
		if total != parent {
			t.Errorf("%d legs over %d k-NN with disjoint holders, the backend-space visit took %d", total, queries, parent)
		}
	})
}

// TestRouterRangeLegs: a window over two ranges that one backend co-holds is
// one leg whatever the rotation says, and reads of a single range still
// spread evenly across its replicas.
func TestRouterRangeLegs(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })
	lc := newLegCounter(hub, tc)

	// Windows around items: one needing exactly two ranges, one needing one.
	two, one := geom.EmptyRect(), geom.EmptyRect()
	s := r.snap()
	for _, it := range ds.Items() {
		w := it.MBR.Expand(300)
		switch n := len(s.neededRanges(nil, w)); {
		case n == 2 && two.IsEmpty():
			two = w
		case n == 1 && one.IsEmpty():
			one = w
		}
	}
	if two.IsEmpty() || one.IsEmpty() {
		t.Fatal("no window over exactly two ranges, or none over exactly one")
	}

	lc.since()
	for i := 0; i < 100; i++ {
		got, err := r.RangeAppendUntil(nil, two, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		sameIDs(t, "two-range window", got, pool.RangeAppend(nil, two))
		if legs := sum(lc.since()); legs != 1 {
			t.Fatalf("call %d: a window over ranges %v took %d legs; one backend holds both", i, s.neededRanges(nil, two), legs)
		}
	}

	const reads = 1000
	for i := 0; i < reads; i++ {
		if _, err := r.RangeAppendUntil(nil, one, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	rg := s.neededRanges(nil, one)[0]
	legs := lc.since()
	if sum(legs) != reads {
		t.Fatalf("%d single-range reads took %d legs", reads, sum(legs))
	}
	for _, b := range s.holders[rg] {
		if share := float64(legs[b]) / reads; share < 0.4 || share > 0.6 {
			t.Errorf("replica %d of range %d took %.0f%% of %d reads, want 40–60%%: %v", b, rg, 100*share, reads, legs)
		}
	}
}

// TestRouterNNBreakerOpen: with one backend's breaker open every k-NN still
// equals the oracle — the ranges it holds are answered by their replica or
// pruned — and the open backend takes no leg.
func TestRouterNNBreakerOpen(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	inj := faultlink.New(faultlink.Profile{})
	const victim = 1
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 300 * time.Millisecond
		cfg.Breaker = client.BreakerConfig{Enabled: true, FailureThreshold: 2, ProbeInterval: time.Hour}
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			if addr == tc.addrs[victim] {
				return inj.DialFunc(nil)(addr, timeout)
			}
			return net.DialTimeout("tcp", addr, timeout)
		}
	})
	lc := newLegCounter(hub, tc)

	inj.ForceOutage(true)
	rng := rand.New(rand.NewSource(25))
	sc := &shard.Scratch{}
	query := func(label string) {
		pt := geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
		got, err := r.KNearestAppendUntil(nil, pt, 8, sc, time.Time{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, _ := pool.KNearestAppend(nil, pt, 8, sc)
		checkNN(t, label, ds, pt, got, want)
	}
	// The breaker trips on legs that die mid-call; each such call must fail
	// over to the replica and still answer.
	deadline := time.Now().Add(10 * time.Second)
	for r.BackendHealthy(victim) {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped during the forced outage")
		}
		query("knn while the breaker trips")
	}
	lc.since()
	for i := 0; i < 200; i++ {
		query("knn with the breaker open")
	}
	if legs := lc.since(); legs[victim] != 0 {
		t.Fatalf("the open-breaker backend took %d legs: %v", legs[victim], legs)
	}
	if v := hub.Reg.Counter("router_unroutable_total").Value(); v != 0 {
		t.Fatalf("%d queries unroutable; R=2 must survive one backend", v)
	}
}

// TestRouterNNDivergentAsksEveryHolder: a range whose replicas disagree
// bounds nothing and any holder may be the lagging one, so a k-NN asks every
// healthy holder of it — an object only one replica has is found whichever
// way the rotation points.
func TestRouterNNDivergentAsksEveryHolder(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 2, mutable.AdaptiveConfig{})
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = 20 * time.Millisecond
	})
	lc := newLegCounter(hub, tc)

	// A write applied at ONE replica, behind the router's back: the holders
	// of its range now disagree, and the next refresh says so.
	const lone = 0
	seg := segInRange(t, ds, cuts, func(rg int) bool { return r.snap().holds[lone][rg] })
	rg := r.snap().rangeForKey(shard.WriteKey(r.wq, seg.MBR()))
	id := uint32(ds.Len() + 77)
	if _, _, owned, err := pools[lone].ApplyInsert(id, seg); err != nil || !owned {
		t.Fatalf("direct insert: owned=%v err=%v", owned, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !r.snap().divergent[rg] {
		if time.Now().After(deadline) {
			t.Fatalf("range %d never reported divergent", rg)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dataset segment whose geometry the insert copied lies at distance 0
	// too, with any street segment sharing the endpoint: k leaves room.
	lc.since()
	for i := 0; i < 20; i++ {
		nbs, err := r.KNearestAppendUntil(nil, seg.A, 16, nil, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.snap().divergent[rg] {
			t.Fatalf("range %d stopped being divergent mid-test", rg)
		}
		found := false
		for _, nb := range nbs {
			found = found || (nb.ID == id && nb.Dist == 0)
		}
		if !found {
			t.Fatalf("query %d: id %d, which only replica %d holds, is not among the 16 nearest of its own endpoint: %v", i, id, lone, nbs)
		}
		legs := lc.since()
		for _, b := range r.snap().holders[rg] {
			if legs[b] != 1 {
				t.Fatalf("query %d: holder %d of divergent range %d took %d legs, want 1 each: %v", i, b, rg, legs[b], legs)
			}
		}
	}
}
