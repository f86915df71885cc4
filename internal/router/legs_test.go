package router

// legs_test.go pins what a routed read costs in backend legs, by kind: a
// k-NN asks one holder per range it cannot prune (not every backend), a
// window asks the holder that covers the most of it, and a batch's k-NN
// sub-queries take their first leg inside the batch's grouped legs.

import (
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/faultlink"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
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
	tc, pools, cuts := startMutableCluster(t, ds, 3, 2)
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
	if _, _, owned, err := pools[lone].ApplyMove(id, seg); err != nil || !owned {
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

// clusterMixBatch draws a 16-query batch of the benchmark's cluster mix:
// each sub-query centred on a random segment's midpoint, 50 % points at the
// default tolerance, 30 % 2 km windows and 20 % 8-NN, every other 8-NN asking
// for neighbors (a router fronted as a backend) instead of ids.
func clusterMixBatch(rng *rand.Rand, ds *dataset.Dataset) []proto.QueryMsg {
	qs := make([]proto.QueryMsg, 16)
	nn := 0
	for i := range qs {
		p := ds.Seg(uint32(rng.Intn(ds.Len()))).Midpoint()
		switch x := rng.Intn(100); {
		case x < 50:
			qs[i] = proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: p}
		case x < 80:
			qs[i] = proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: geom.Rect{Min: p, Max: p}.Expand(1000)}
		default:
			qs[i] = proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: p, K: 8}
			if nn++; nn%2 == 0 {
				qs[i].Mode = proto.ModeNeighbors
			}
		}
	}
	return qs
}

// runMixBatch answers one cluster-mix batch through RunQueryBatch and checks
// every item against the flat oracle: ids for points and windows, ids and
// distances rank by rank for a k-NN.
func runMixBatch(t *testing.T, label string, r *Router, rng *rand.Rand, pool *shard.Pool) {
	t.Helper()
	ds := r.Dataset()
	qs := clusterMixBatch(rng, ds)
	items := make([]proto.BatchItem, len(qs))
	r.RunQueryBatch(qs, items, time.Time{})
	for i := range qs {
		q, it := &qs[i], &items[i]
		if it.Err != 0 {
			t.Fatalf("%s item %d: code %d (%s)", label, i, it.Err, it.Text)
		}
		switch q.Kind {
		case proto.KindPoint:
			sameIDs(t, label+" point", it.IDs, pool.PointAppend(nil, q.Point, proto.DefaultPointEps))
		case proto.KindRange:
			sameIDs(t, label+" window", it.IDs, pool.RangeAppend(nil, q.Window))
		default:
			var got []rtree.Neighbor
			for _, nb := range it.Nbrs {
				got = append(got, rtree.Neighbor{ID: nb.ID, Dist: nb.Dist})
			}
			for _, id := range it.IDs {
				got = append(got, rtree.Neighbor{ID: id, Dist: ds.Seg(id).DistToPoint(q.Point)})
			}
			if q.Mode == proto.ModeNeighbors && len(it.IDs) > 0 {
				t.Fatalf("%s item %d: a neighbors-mode k-NN answered ids", label, i)
			}
			want, _ := pool.KNearestAppend(nil, q.Point, int(q.K), nil)
			checkNN(t, label+" knn", ds, q.Point, got, want)
		}
	}
}

// TestRouterBatchNNLegs: at R = 2 over three backends a 16-query batch of the
// cluster mix takes at most three backend legs on average — its k-NN
// sub-queries ride the grouped legs, and most of their answers prove
// themselves there — and router_batch_legs_total counts every one of them.
// Every answer equals the flat oracle, also with a backend killed mid-run
// and with one behind an open breaker; a k-NN beside a divergent range asks
// each of its holders once.
func TestRouterBatchNNLegs(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)

	t.Run("healthy", func(t *testing.T) {
		tc := startCluster(t, ds, 3, 2)
		hub := obs.NewHub()
		r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })
		lc := newLegCounter(hub, tc)
		rng := rand.New(rand.NewSource(26))
		const batches = 300
		for i := 0; i < batches; i++ {
			runMixBatch(t, "healthy", r, rng, pool)
		}
		legs := sum(lc.since())
		mean := float64(legs) / batches
		t.Logf("%.2f legs per 16-query batch", mean)
		if mean > 3 {
			t.Errorf("%.2f legs per 16-query batch, want ≤ 3", mean)
		}
		if v := hub.Reg.Counter("router_batch_legs_total").Value(); v != legs {
			t.Errorf("router_batch_legs_total = %d, the backends took %d legs", v, legs)
		}
	})

	t.Run("backend killed mid-run", func(t *testing.T) {
		tc := startCluster(t, ds, 3, 2)
		hub := obs.NewHub()
		r := newRouter(t, tc, func(cfg *Config) {
			cfg.Obs = hub
			cfg.LegTimeout = 500 * time.Millisecond
		})
		rng := rand.New(rand.NewSource(27))
		for i := 0; i < 100; i++ {
			if i == 50 {
				tc.servers[1].Close()
			}
			runMixBatch(t, "kill", r, rng, pool)
		}
		if v := hub.Reg.Counter("router_failover_total").Value(); v == 0 {
			t.Fatal("the killed backend never failed a leg; the test exercised nothing")
		}
		if v := hub.Reg.Counter("router_unroutable_total").Value(); v != 0 {
			t.Fatalf("%d sub-queries unroutable; R=2 must survive one backend", v)
		}
	})

	t.Run("breaker open", func(t *testing.T) {
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
		rng := rand.New(rand.NewSource(28))
		deadline := time.Now().Add(10 * time.Second)
		for r.BackendHealthy(victim) {
			if time.Now().After(deadline) {
				t.Fatal("breaker never tripped during the forced outage")
			}
			runMixBatch(t, "breaker tripping", r, rng, pool)
		}
		lc.since()
		for i := 0; i < 100; i++ {
			runMixBatch(t, "breaker open", r, rng, pool)
		}
		if legs := lc.since(); legs[victim] != 0 {
			t.Fatalf("the open-breaker backend took %d legs: %v", legs[victim], legs)
		}
		if v := hub.Reg.Counter("router_unroutable_total").Value(); v != 0 {
			t.Fatalf("%d sub-queries unroutable; R=2 must survive one backend", v)
		}
	})

	t.Run("divergent range", func(t *testing.T) {
		tc, pools, cuts := startMutableCluster(t, ds, 3, 2)
		hub := obs.NewHub()
		r := newRouter(t, tc, func(cfg *Config) {
			cfg.Obs = hub
			cfg.RefreshInterval = 20 * time.Millisecond
		})
		lc := newLegCounter(hub, tc)

		// A write applied at ONE replica, behind the router's back, as in
		// TestRouterNNDivergentAsksEveryHolder.
		const lone = 0
		seg := segInRange(t, ds, cuts, func(rg int) bool { return r.snap().holds[lone][rg] })
		rg := r.snap().rangeForKey(shard.WriteKey(r.wq, seg.MBR()))
		id := uint32(ds.Len() + 78)
		if _, _, owned, err := pools[lone].ApplyMove(id, seg); err != nil || !owned {
			t.Fatalf("direct insert: owned=%v err=%v", owned, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !r.snap().divergent[rg] {
			if time.Now().After(deadline) {
				t.Fatalf("range %d never reported divergent", rg)
			}
			time.Sleep(5 * time.Millisecond)
		}

		lc.since()
		for i := 0; i < 20; i++ {
			qs := []proto.QueryMsg{{Kind: proto.KindNN, Mode: proto.ModeNeighbors, Point: seg.A, K: 16}}
			items := make([]proto.BatchItem, 1)
			r.RunQueryBatch(qs, items, time.Time{})
			if items[0].Err != 0 {
				t.Fatalf("batch %d: code %d (%s)", i, items[0].Err, items[0].Text)
			}
			if !r.snap().divergent[rg] {
				t.Fatalf("range %d stopped being divergent mid-test", rg)
			}
			if !slices.Contains(items[0].Nbrs, proto.Neighbor{ID: id, Dist: 0}) {
				t.Fatalf("batch %d: id %d, which only replica %d holds, is not among the 16 nearest of its own endpoint: %v", i, id, lone, items[0].Nbrs)
			}
			legs := lc.since()
			for _, b := range r.snap().holders[rg] {
				if legs[b] != 1 {
					t.Fatalf("batch %d: holder %d of divergent range %d took %d legs, want 1 each: %v", i, b, rg, legs[b], legs)
				}
			}
		}
	})
}

// TestRouterSingleKNNIsBatchOfOne: a single k-NN is the batch of one it is
// built as. Two routers over one R = 2 cluster of three backends, both fresh
// so their replica rotations start alike, take 300 seeded points × k ∈ {1,
// 8, 64}: one through KNearestAppendUntil, the other as a one-item
// ModeNeighbors RunQueryBatch. Both equal the flat oracle rank by rank, and
// every query takes the same legs on every backend on both. A client's
// KindNN item whose Eps would truncate the answer, were it read as a bound,
// still gets the exact k nearest.
func TestRouterSingleKNNIsBatchOfOne(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	hubs := [2]*obs.Hub{obs.NewHub(), obs.NewHub()}
	var rs [2]*Router
	var lcs [2]*legCounter
	for i, hub := range hubs {
		rs[i] = newRouter(t, tc, func(cfg *Config) { cfg.Obs, cfg.RefreshInterval = hub, -1 })
		lcs[i] = newLegCounter(hub, tc)
	}
	single, batch := rs[0], rs[1]

	rng := rand.New(rand.NewSource(29))
	randPt := func() geom.Point { return geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()} }
	items := make([]proto.BatchItem, 1)
	for i := 0; i < 300; i++ {
		pt := randPt()
		for _, k := range []int{1, 8, 64} {
			want, _ := pool.KNearestAppend(nil, pt, k, nil)
			got, err := single.KNearestAppendUntil(nil, pt, k, nil, time.Time{})
			if err != nil {
				t.Fatalf("pt %d k %d: single: %v", i, k, err)
			}
			checkNN(t, "single", ds, pt, got, want)

			items[0] = proto.BatchItem{}
			batch.RunQueryBatch([]proto.QueryMsg{{Kind: proto.KindNN, Mode: proto.ModeNeighbors, Point: pt, K: uint16(k)}}, items, time.Time{})
			if items[0].Err != 0 {
				t.Fatalf("pt %d k %d: batch of one: code %d (%s)", i, k, items[0].Err, items[0].Text)
			}
			got = got[:0]
			for _, nb := range items[0].Nbrs {
				got = append(got, rtree.Neighbor{ID: nb.ID, Dist: nb.Dist})
			}
			checkNN(t, "batch of one", ds, pt, got, want)

			if a, b := lcs[0].since(), lcs[1].since(); !slices.Equal(a, b) {
				t.Fatalf("pt %d k %d: legs per backend %v as a single k-NN, %v as a batch of one", i, k, a, b)
			}
		}
	}

	for i := 0; i < 100; i++ {
		pt := randPt()
		items[0] = proto.BatchItem{}
		batch.RunQueryBatch([]proto.QueryMsg{{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: 8, Eps: 1e-9}}, items, time.Time{})
		if items[0].Err != 0 {
			t.Fatalf("query %d: code %d (%s)", i, items[0].Err, items[0].Text)
		}
		var got []rtree.Neighbor
		for _, id := range items[0].IDs {
			got = append(got, rtree.Neighbor{ID: id, Dist: ds.Seg(id).DistToPoint(pt)})
		}
		want, _ := pool.KNearestAppend(nil, pt, 8, nil)
		checkNN(t, "k-NN with a client Eps", ds, pt, got, want)
	}
}

// TestRouterKNNRefusesKBeyondWire: a k the wire's 16-bit field cannot carry
// is refused as a bad request before any leg, never truncated to a smaller
// k.
func TestRouterKNNRefusesKBeyondWire(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })
	lc := newLegCounter(hub, tc)
	lc.since()
	nbs, err := r.KNearestAppendUntil(nil, geom.Point{X: 20000, Y: 20000}, 70_000, nil, time.Time{})
	if err == nil || len(nbs) != 0 {
		t.Fatalf("k=70000 answered %d neighbors, err %v", len(nbs), err)
	}
	if code, text := proto.CodeOf(err); code != proto.CodeBadRequest {
		t.Fatalf("k=70000 refused with %v (%s), want bad-request", code, text)
	}
	if legs := sum(lc.since()); legs != 0 {
		t.Fatalf("k=70000 took %d legs before its refusal", legs)
	}
}
