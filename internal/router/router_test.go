package router

import (
	"errors"
	"math"
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
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// A Router is a drop-in serve pool on every surface cmd/mqrouter needs.
var (
	_ serve.Executor         = (*Router)(nil)
	_ serve.DeadlineExecutor = (*Router)(nil)
)

// clusterDataset builds the deterministic world every process of a test
// cluster derives its partition from.
func clusterDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "router-test",
		NumSegments:    6000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 40000, Y: 40000}},
		Clusters:       5,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.25,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.6,
		Seed:           23,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

// truthPool builds the monolithic pool the router's answers are compared
// against.
func truthPool(t testing.TB, ds *dataset.Dataset) *shard.Pool {
	t.Helper()
	pool, err := shard.New(ds, shard.Config{Shards: 1})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	return pool
}

// testCluster is nBackends partitioned serve.Servers over the same dataset,
// each holding what shard.Hold gives it under R-way rotation placement.
type testCluster struct {
	ds      *dataset.Dataset
	ranges  []shard.Range
	addrs   []string
	servers []*serve.Server
}

// hold is what backend b of p holds at R=replicas.
func hold(t testing.TB, p shard.Partition, b, replicas int) shard.Held {
	t.Helper()
	h, err := p.Hold(b, replicas)
	if err != nil {
		t.Fatalf("hold: %v", err)
	}
	return h
}

// heldItems concatenates the held ranges' items, what shard.Config.Items
// takes (and sorts in place).
func heldItems(h shard.Held) []rtree.Item {
	var items []rtree.Item
	for _, rg := range h.Ranges {
		items = append(items, rg.Items...)
	}
	return items
}

// listen serves cfg on a loopback port until the test ends.
func listen(t testing.TB, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// dial serves cfg and returns the server and a client of conns connections
// to it.
func dial(t testing.TB, cfg serve.Config, conns int) (*serve.Server, *client.Client) {
	t.Helper()
	srv, addr := listen(t, cfg)
	c, err := client.New(client.Config{Addr: addr, Conns: conns})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// serve starts one backend server and adds it to tc.
func (tc *testCluster) serve(t testing.TB, cfg serve.Config) {
	t.Helper()
	srv, addr := listen(t, cfg)
	tc.addrs = append(tc.addrs, addr)
	tc.servers = append(tc.servers, srv)
}

func startCluster(t testing.TB, ds *dataset.Dataset, nBackends, replicas int) *testCluster {
	t.Helper()
	part := shard.Cut(ds.Items(), nBackends)
	tc := &testCluster{ds: ds, ranges: part.Ranges}
	for b := 0; b < nBackends; b++ {
		held := hold(t, part, b, replicas)
		pool, err := shard.New(ds, shard.Config{Shards: 4, Items: heldItems(held)})
		if err != nil {
			t.Fatalf("backend %d pool: %v", b, err)
		}
		tc.serve(t, serve.Config{Pool: pool, Ranges: held.Rows(), NumRanges: nBackends})
	}
	return tc
}

func newRouter(t testing.TB, tc *testCluster, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Backends:        tc.addrs,
		Dataset:         tc.ds,
		RegisterTimeout: 15 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// randWindow draws a query window of fractional extent f.
func randWindow(rng *rand.Rand, extent geom.Rect, f float64) geom.Rect {
	w := extent.Width() * f
	h := extent.Height() * f
	x := extent.Min.X + rng.Float64()*(extent.Width()-w)
	y := extent.Min.Y + rng.Float64()*(extent.Height()-h)
	return geom.Rect{Min: geom.Point{X: x, Y: y}, Max: geom.Point{X: x + w, Y: y + h}}
}

func sortedCopy(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	slices.Sort(out)
	return out
}

func sameIDs(t *testing.T, label string, got, want []uint32) {
	t.Helper()
	g, w := sortedCopy(got), sortedCopy(want)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: got %d ids, want %d (first divergence around %v vs %v)", label, len(g), len(w), head(g), head(w))
	}
}

func head(ids []uint32) []uint32 {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}

// nearest1 is a cluster-wide 1-NN through the router's one k-NN call.
func nearest1(r *Router, pt geom.Point) (shard.NearestResult, error) {
	nbs, err := r.KNearestAppendUntil(nil, pt, 1, nil, time.Time{})
	return shard.NearestOf(nbs), err
}

// checkNN verifies a k-NN answer against the monolithic truth under the
// one tie contract (rtree.Neighbor.Before): rank by rank the same id at the
// same distance — where k cuts an equal-distance group both sides keep its
// smallest ids — and every id genuinely at its claimed distance.
func checkNN(t *testing.T, label string, ds *dataset.Dataset, pt geom.Point, got, want []rtree.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d is %+v, want %+v", label, i, got[i], want[i])
		}
		if d := ds.Seg(got[i].ID).DistToPoint(pt); d != got[i].Dist {
			t.Fatalf("%s: id %d true dist %v, reported %v", label, got[i].ID, d, got[i].Dist)
		}
	}
}

func TestRouterRangeEquivalence(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	rng := rand.New(rand.NewSource(7))
	extent := pool.Bounds()
	windows := []geom.Rect{
		extent,                       // everything
		randWindow(rng, extent, 0.0), // degenerate point-window
		{Min: geom.Point{X: -500, Y: -500}, Max: geom.Point{X: -100, Y: -100}}, // empty
	}
	for i := 0; i < 30; i++ {
		windows = append(windows, randWindow(rng, extent, 0.02+0.3*rng.Float64()))
	}
	for i, w := range windows {
		got, err := r.RangeAppendUntil(nil, w, time.Time{})
		if err != nil {
			t.Fatalf("range %d: %v", i, err)
		}
		sameIDs(t, "range", got, pool.RangeAppend(nil, w))

		got, err = r.SearchAppendUntil(nil, nil, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w}, time.Time{})
		if err != nil {
			t.Fatalf("filter range %d: %v", i, err)
		}
		sameIDs(t, "filter range", got, pool.FilterRangeAppend(nil, w))
		sameIDs(t, "range records", searchRecords(t, r, ds, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: w}), pool.RangeAppend(nil, w))
		sameIDs(t, "filter records", searchRecords(t, r, ds, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeCandidates, Window: w}), pool.FilterRangeAppend(nil, w))
	}
}

// searchRecords asks r for q's records and fails unless every record carries
// its object's segment; it returns the ids.
func searchRecords(t *testing.T, r *Router, ds *dataset.Dataset, q proto.QueryMsg) []uint32 {
	t.Helper()
	var segs []geom.Segment
	ids, err := r.SearchAppendUntil(nil, &segs, q, time.Time{})
	if err != nil || len(segs) != len(ids) {
		t.Fatalf("%v records of a kind %d query: %d ids, %d segments, %v", q.Mode, q.Kind, len(ids), len(segs), err)
	}
	for i, id := range ids {
		if segs[i] != ds.Seg(id) {
			t.Fatalf("%v record %d carries %v, its segment is %v", q.Mode, id, segs[i], ds.Seg(id))
		}
	}
	return ids
}

func TestRouterPointEquivalence(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	rng := rand.New(rand.NewSource(8))
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		// Segment endpoints guarantee hits; random points mostly miss.
		pts = append(pts, ds.Seg(uint32(rng.Intn(len(ds.Segments)))).A)
		pts = append(pts, geom.Point{
			X: 40000 * rng.Float64(),
			Y: 40000 * rng.Float64(),
		})
	}
	for i, pt := range pts {
		got, err := r.PointAppendUntil(nil, pt, 0, time.Time{})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		sameIDs(t, "point", got, pool.PointAppend(nil, pt, 0))

		got, err = r.PointAppendUntil(nil, pt, 25, time.Time{})
		if err != nil {
			t.Fatalf("point eps %d: %v", i, err)
		}
		sameIDs(t, "point eps", got, pool.PointAppend(nil, pt, 25))

		got, err = r.SearchAppendUntil(nil, nil, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeFilter, Point: pt}, time.Time{})
		if err != nil {
			t.Fatalf("filter point %d: %v", i, err)
		}
		sameIDs(t, "filter point", got, pool.FilterPointAppend(nil, pt))
		sameIDs(t, "point records", searchRecords(t, r, ds, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeData, Point: pt, Eps: 25}), pool.PointAppend(nil, pt, 25))
		sameIDs(t, "filter point records", searchRecords(t, r, ds, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeCandidates, Point: pt}), pool.FilterPointAppend(nil, pt))
	}
}

func TestRouterNNEquivalence(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	rng := rand.New(rand.NewSource(9))
	sc := &shard.Scratch{}
	for i := 0; i < 25; i++ {
		pt := geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
		for _, k := range []int{1, 3, 8, 32} {
			got, err := r.KNearestAppendUntil(nil, pt, k, sc, time.Time{})
			if err != nil {
				t.Fatalf("knn pt %d k %d: %v", i, k, err)
			}
			want, _ := pool.KNearestAppend(nil, pt, k, sc)
			checkNN(t, "knn", ds, pt, got, want)
		}
		res, err := nearest1(r, pt)
		if err != nil {
			t.Fatalf("nearest pt %d: %v", i, err)
		}
		truth := pool.NearestWith(pt, sc)
		if res.OK != truth.OK || res.Dist != truth.Dist {
			t.Fatalf("nearest pt %d: got (%v %v), want (%v %v)", i, res.OK, res.Dist, truth.OK, truth.Dist)
		}
	}
}

// TestRouterNNForcedTies queries exactly at endpoints shared by consecutive
// street segments: at least two items sit at distance zero, so every small k
// cuts inside an equal-distance group.
func TestRouterNNForcedTies(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	sc := &shard.Scratch{}
	ties := 0
	for id := uint32(0); int(id+1) < len(ds.Segments) && ties < 10; id++ {
		pt := ds.Seg(id).B
		if ds.Seg(id+1).A != pt {
			continue
		}
		ties++
		for _, k := range []int{1, 2, 4} {
			got, err := r.KNearestAppendUntil(nil, pt, k, sc, time.Time{})
			if err != nil {
				t.Fatalf("tie id %d k %d: %v", id, k, err)
			}
			want, _ := pool.KNearestAppend(nil, pt, k, sc)
			checkNN(t, "tie", ds, pt, got, want)
			if got[0].Dist != 0 {
				t.Fatalf("tie id %d: nearest dist %v, want 0", id, got[0].Dist)
			}
		}
	}
	if ties == 0 {
		t.Fatal("dataset produced no shared street endpoints; tie coverage lost")
	}
}

// TestRouterFailover kills one backend of an R=2 cluster mid-run, with
// pooled connections to it open and its breaker closed: the legs that die on
// it fail over inside their call — a window's ranges are re-covered, a k-NN's
// open range goes to its other holder — and every query must still succeed,
// with the failovers visible in the router's counters.
func TestRouterFailover(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 500 * time.Millisecond
	})

	rng := rand.New(rand.NewSource(10))
	sc := &shard.Scratch{}
	extent := pool.Bounds()
	for i := 0; i < 60; i++ {
		if i == 20 {
			tc.servers[0].Close() // outage: backend 0 gone, every range keeps a replica
		}
		w := randWindow(rng, extent, 0.05+0.2*rng.Float64())
		got, err := r.RangeAppendUntil(nil, w, time.Time{})
		if err != nil {
			t.Fatalf("range %d during outage: %v", i, err)
		}
		sameIDs(t, "outage range", got, pool.RangeAppend(nil, w))

		pt := geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
		for _, k := range []int{1, 5, 40} {
			nn, err := r.KNearestAppendUntil(nil, pt, k, sc, time.Time{})
			if err != nil {
				t.Fatalf("knn %d k %d during outage: %v", i, k, err)
			}
			want, _ := pool.KNearestAppend(nil, pt, k, sc)
			checkNN(t, "outage knn", ds, pt, nn, want)
		}
	}
	if v := hub.Reg.Counter("router_leg_errors_total").Value(); v == 0 {
		t.Fatal("no leg errors recorded despite a dead backend")
	}
	if v := hub.Reg.Counter("router_failover_total").Value(); v == 0 {
		t.Fatal("no failovers recorded despite a dead backend")
	}
	if v := hub.Reg.Counter("router_unroutable_total").Value(); v != 0 {
		t.Fatalf("%d queries unroutable; R=2 must survive one backend", v)
	}
}

// TestRouterUnavailable loses the only copy of a range (R=1) and expects the
// transient CodeUnavailable, never a silent hole.
func TestRouterUnavailable(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 1)
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.LegTimeout = 300 * time.Millisecond
	})

	tc.servers[1].Close()

	w := tc.ranges[1].MBR // needs the lost range
	_, err := r.RangeAppendUntil(nil, w, time.Time{})
	if err == nil {
		t.Fatal("query over a lost range succeeded; must fail unavailable")
	}
	var coded interface{ ErrCode() proto.ErrCode }
	if !errors.As(err, &coded) || coded.ErrCode() != proto.CodeUnavailable {
		t.Fatalf("lost-range error = %v; want CodeUnavailable", err)
	}

	sc := &shard.Scratch{}
	_, err = r.KNearestAppendUntil(nil, w.Center(), 5, sc, time.Time{})
	if !errors.As(err, &coded) || coded.ErrCode() != proto.CodeUnavailable {
		t.Fatalf("lost-range knn error = %v; want CodeUnavailable", err)
	}

	// The lost range matters only where the bound cannot prune it: a 1-NN
	// that sits ON an item of a surviving range, clear of the lost range's
	// MBR, ends at distance 0 and is answered without the dead holder.
	for _, it := range tc.ranges[0].Items {
		pt := ds.Seg(it.ID).A
		if tc.ranges[1].MBR.MinDist(pt) == 0 {
			continue
		}
		res, err := nearest1(r, pt)
		if err != nil || !res.OK || res.Dist != 0 {
			t.Fatalf("1-NN at %v, beyond the lost range's reach: %+v, err %v; want an answer at distance 0", pt, res, err)
		}
		return
	}
	t.Fatal("no range-0 item clear of the lost range's MBR")
}

// TestRouterReadSpreading sends identical queries at an R=2 cluster and
// expects the rotation to put work on every replica, not pin the primary.
func TestRouterReadSpreading(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 2, 2)
	r := newRouter(t, tc, nil)

	before := make([]uint64, len(tc.servers))
	for b, srv := range tc.servers {
		before[b] = srv.Stats().Served
	}
	w := tc.ranges[0].MBR.Intersection(tc.ranges[1].MBR)
	if w.IsEmpty() {
		w = tc.ranges[0].MBR
	}
	for i := 0; i < 60; i++ {
		if _, err := r.RangeAppendUntil(nil, w, time.Time{}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	for b, srv := range tc.servers {
		served := srv.Stats().Served - before[b]
		if served < 15 {
			t.Fatalf("backend %d served %d of 60 identical queries; reads are not spreading", b, served)
		}
	}
}

// stalledBackend is a protocol endpoint that registers (answers every
// summary request with summary()) and then swallows every query without
// replying — the pathological slow replica.
func stalledBackend(t testing.TB, summary func() proto.SummaryMsg) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("stalled backend listen: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				for {
					msg, _, err := proto.ReadMessage(nc)
					if err != nil {
						return
					}
					if m, ok := msg.(*proto.SummaryReqMsg); ok {
						sm := summary()
						sm.ID = m.ID
						proto.WriteMessage(nc, &sm)
					}
					// Everything else stalls forever: no reply.
				}
			}(nc)
		}
	}()
	return lis.Addr().String()
}

// TestRouterDeadlineCapsStalledLeg is the satellite regression: with a
// 5-second LegTimeout and a 300ms query deadline, a leg into a stalled
// backend must give up at the query deadline — the deadline is inherited
// down the hop, not re-applied per hop (which would stretch the query to
// LegTimeout or beyond).
func TestRouterDeadlineCapsStalledLeg(t *testing.T) {
	ds := clusterDataset(t)
	part := shard.Cut(ds.Items(), 2)
	ranges := part.Ranges

	// Backend 0 is real and holds range 0; backend 1 claims range 1 but
	// stalls every query.
	held := hold(t, part, 0, 1)
	pool, err := shard.New(ds, shard.Config{Shards: 2, Items: heldItems(held)})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	_, live := listen(t, serve.Config{Pool: pool, Ranges: held.Rows(), NumRanges: 2})

	claim := hold(t, part, 1, 1).Rows()
	stalled := stalledBackend(t, func() proto.SummaryMsg {
		return proto.SummaryMsg{NumRanges: 2, Ranges: claim}
	})

	r, err := New(Config{
		Backends:        []string{live, stalled},
		Dataset:         ds,
		LegTimeout:      5 * time.Second, // must NOT be what caps the query
		RegisterTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	w := ranges[0].MBR.Union(ranges[1].MBR) // touches both ranges
	start := time.Now()
	_, err = r.RangeAppendUntil(nil, w, time.Now().Add(300*time.Millisecond))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query through a stalled sole holder succeeded")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("stalled leg held the query %v; the 300ms deadline did not cap it", elapsed)
	}

	// A query that never needs the stalled range stays unaffected. The two
	// range MBRs overlap, so pick a range-0 item clear of range 1's MBR.
	healthy := geom.EmptyRect()
	for _, it := range ranges[0].Items {
		if !it.MBR.Intersects(ranges[1].MBR) {
			healthy = it.MBR
			break
		}
	}
	if healthy.IsEmpty() {
		t.Skip("no range-0 item clear of range 1's MBR")
	}
	got, err := r.RangeAppendUntil(nil, healthy, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatalf("healthy-range query: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("healthy-range query returned nothing")
	}
}

// TestRouterBackendRecovery is the re-admission regression: once the
// breaker trips a backend out of the read set, no query traffic reaches it
// again, so only the router's background probe loop can bring it back. The
// outage rides a per-backend faultlink dial so the backend process itself
// never dies.
func TestRouterBackendRecovery(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	inj := faultlink.New(faultlink.Profile{})
	victim := tc.addrs[2]
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.LegTimeout = 300 * time.Millisecond
		cfg.Breaker = client.BreakerConfig{
			Enabled:          true,
			FailureThreshold: 2,
			ProbeInterval:    50 * time.Millisecond,
		}
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			if addr == victim {
				return inj.DialFunc(nil)(addr, timeout)
			}
			return net.DialTimeout("tcp", addr, timeout)
		}
	})

	w := tc.ranges[2].MBR
	inj.ForceOutage(true)
	// Queries keep succeeding off the replicas while the victim's breaker
	// accumulates failures and trips.
	deadline := time.Now().Add(10 * time.Second)
	for r.BackendHealthy(2) {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped during the forced outage")
		}
		if _, err := r.RangeAppendUntil(nil, w, time.Time{}); err != nil {
			t.Fatalf("query during outage: %v", err)
		}
	}

	// Outage over: with zero query traffic aimed at the victim, only the
	// probe loop can re-admit it.
	inj.ForceOutage(false)
	deadline = time.Now().Add(10 * time.Second)
	for !r.BackendHealthy(2) {
		if time.Now().After(deadline) {
			t.Fatal("backend never re-admitted after the outage ended")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := r.RangeAppendUntil(nil, w, time.Time{}); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

func TestBuildTableValidation(t *testing.T) {
	mbr := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}}
	rng := func(idx uint32) proto.RangeInfo {
		return proto.RangeInfo{Index: idx, Items: 1, MBR: mbr}
	}
	sum := func(n uint32, rs ...proto.RangeInfo) *proto.SummaryMsg {
		return &proto.SummaryMsg{NumRanges: n, Ranges: rs}
	}

	if _, err := buildTable(nil); err == nil {
		t.Fatal("empty summaries accepted")
	}
	if _, err := buildTable([]*proto.SummaryMsg{sum(2, rng(0)), sum(3, rng(1))}); err == nil {
		t.Fatal("disagreeing NumRanges accepted")
	}
	if _, err := buildTable([]*proto.SummaryMsg{sum(2, rng(0), rng(0))}); err == nil {
		t.Fatal("duplicate range accepted")
	}
	if _, err := buildTable([]*proto.SummaryMsg{sum(2, rng(0), rng(2))}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := buildTable([]*proto.SummaryMsg{sum(2, rng(0)), sum(2, rng(0))}); err == nil {
		t.Fatal("holderless range accepted")
	}

	tbl, err := buildTable([]*proto.SummaryMsg{sum(2, rng(0), rng(1)), sum(2, rng(1))})
	if err != nil {
		t.Fatalf("valid summaries rejected: %v", err)
	}
	if tbl.numRanges != 2 || len(tbl.holders[1]) != 2 || len(tbl.holders[0]) != 1 {
		t.Fatalf("table misbuilt: %+v", tbl)
	}
	if tbl.divergent[0] || tbl.divergent[1] {
		t.Fatalf("agreeing holders flagged divergent: %v", tbl.divergent)
	}

	// Disagreeing holders — replication lag in flight: versions take the min
	// (the most conservative cache validity), and the range is flagged
	// divergent.
	ri := func(idx uint32, items uint32, version uint64) proto.RangeInfo {
		return proto.RangeInfo{Index: idx, Items: items, Version: version, MBR: mbr}
	}
	tbl, err = buildTable([]*proto.SummaryMsg{
		sum(2, ri(0, 5, 9), ri(1, 1, 4)),
		sum(2, ri(0, 7, 6), ri(1, 1, 4)),
	})
	if err != nil {
		t.Fatalf("lagging summaries rejected: %v", err)
	}
	if tbl.version[0] != 6 || tbl.version[1] != 4 {
		t.Fatalf("versions = %v, want min across holders [6 4]", tbl.version)
	}
	if !tbl.divergent[0] || tbl.divergent[1] {
		t.Fatalf("divergence misdetected: %v, want [true false]", tbl.divergent)
	}
}

// TestMergeIDs: joining two backends' ascending answers keeps the result
// ascending with one copy of every id either reported, whichever side holds
// the smaller ids; records merge by their ids the same way.
func TestMergeIDs(t *testing.T) {
	for _, c := range []struct{ a, b, want []uint32 }{
		{nil, []uint32{4, 9}, []uint32{4, 9}},
		{[]uint32{4, 9}, nil, []uint32{4, 9}},
		{[]uint32{1, 3, 5, 7}, []uint32{2, 3, 6, 7, 8}, []uint32{1, 2, 3, 5, 6, 7, 8}},
		{[]uint32{10, 11, 12}, []uint32{1, 2}, []uint32{1, 2, 10, 11, 12}},
		{[]uint32{1, 2}, []uint32{10, 11, 12}, []uint32{1, 2, 10, 11, 12}},
		{[]uint32{5, 6, 7}, []uint32{5, 6, 7}, []uint32{5, 6, 7}},
		{[]uint32{0, math.MaxUint32}, []uint32{0, 1, math.MaxUint32}, []uint32{0, 1, math.MaxUint32}},
	} {
		if got := merge(slices.Clone(c.a), c.b, idOf); !slices.Equal(got, c.want) {
			t.Errorf("merge(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		recs := func(ids []uint32) []proto.Record {
			var out []proto.Record
			for _, id := range ids {
				out = append(out, proto.Record{ID: id, Seg: geom.Segment{A: geom.Point{X: float64(id)}}})
			}
			return out
		}
		if got := merge(recs(c.a), recs(c.b), recordID); !slices.Equal(got, recs(c.want)) {
			t.Errorf("merge of records %v, %v = %v, want %v", c.a, c.b, got, recs(c.want))
		}
	}
}
