package serve

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// testDataset builds the shared 8000-segment world and its master tree.
func testDataset(t testing.TB) (*dataset.Dataset, *rtree.Tree) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "serve-test",
		NumSegments:    8000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50000, Y: 50000}},
		Clusters:       6,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.25,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.6,
		Seed:           11,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ds, tree
}

// startServer wires a configured server to an ephemeral listener and waits
// for Serve to register it.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	// Wait for Serve to register the listener: a test finishing instantly
	// would otherwise Close before Serve starts and get a spurious
	// "shut down" error.
	for i := 0; i < 2000; i++ {
		srv.mu.Lock()
		started := srv.lis != nil
		srv.mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, lis.Addr().String()
}

// testWorld builds a dataset, monolithic pool, and running server on an
// ephemeral port.
func testWorld(t testing.TB, mutate func(*Config)) (*dataset.Dataset, *shard.Pool, *Server, string) {
	t.Helper()
	ds, tree := testDataset(t)
	pool, err := shard.Over(tree)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	cfg := Config{Pool: pool, Master: tree}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, addr := startServer(t, cfg)
	return ds, pool, srv, addr
}

// testWorldSharded is testWorld with a shard.Pool executor: the same dataset
// and master tree, served through the sharded pool.
func testWorldSharded(t testing.TB, shards int, mutate func(*Config)) (*dataset.Dataset, *shard.Pool, *Server, string) {
	t.Helper()
	ds, tree := testDataset(t)
	pool, err := shard.New(ds, shard.Config{Shards: shards})
	if err != nil {
		t.Fatalf("shard pool: %v", err)
	}
	t.Cleanup(pool.Close)
	cfg := Config{Pool: pool, Master: tree}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, addr := startServer(t, cfg)
	return ds, pool, srv, addr
}

func newClient(t testing.TB, addr string, conns int) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{Addr: addr, Conns: conns})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerAnswersMatchPool verifies every query kind and mode over the
// wire against direct pool execution.
func TestServerAnswersMatchPool(t *testing.T) {
	ds, pool, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 2)
	ext := ds.Extent
	rng := rand.New(rand.NewSource(5))

	for i := 0; i < 40; i++ {
		cx := ext.Min.X + rng.Float64()*ext.Width()
		cy := ext.Min.Y + rng.Float64()*ext.Height()
		pt := geom.Point{X: cx, Y: cy}
		half := 100 + rng.Float64()*1500
		w := geom.Rect{
			Min: geom.Point{X: cx - half, Y: cy - half},
			Max: geom.Point{X: cx + half, Y: cy + half},
		}

		gotIDs, err := c.RangeIDs(w)
		if err != nil {
			t.Fatalf("range ids: %v", err)
		}
		if want := pool.RangeAppend(nil, w); !sameIDs(gotIDs, want) {
			t.Fatalf("range ids mismatch: got %d want %d", len(gotIDs), len(want))
		}

		recs, err := c.Range(w)
		if err != nil {
			t.Fatalf("range data: %v", err)
		}
		for _, r := range recs {
			if r.Seg != ds.Seg(r.ID) {
				t.Fatalf("record %d geometry corrupted over the wire", r.ID)
			}
		}

		cands, err := c.FilterRange(w)
		if err != nil {
			t.Fatalf("filter: %v", err)
		}
		if want := pool.FilterRangeAppend(nil, w); !sameIDs(cands, want) {
			t.Fatalf("filter candidates mismatch")
		}

		ptIDs, err := c.PointIDs(pt, 0)
		if err != nil {
			t.Fatalf("point: %v", err)
		}
		if want := pool.PointAppend(nil, pt, DefaultPointEps); !sameIDs(ptIDs, want) {
			t.Fatalf("point ids mismatch")
		}

		nn, err := c.Nearest(pt)
		if err != nil {
			t.Fatalf("nn: %v", err)
		}
		if want := pool.NearestWith(pt, nil); !want.OK || nn == nil || nn.ID != want.ID {
			t.Fatalf("nn mismatch: got %v want %v", nn, want)
		}

		knn, err := c.KNearest(pt, 5)
		if err != nil {
			t.Fatalf("knn: %v", err)
		}
		want, _ := pool.KNearestAppend(nil, pt, 5, nil)
		if len(knn) != len(want) {
			t.Fatalf("knn length mismatch: %d vs %d", len(knn), len(want))
		}
		for j := range knn {
			if knn[j].ID != want[j].ID {
				t.Fatalf("knn order mismatch at %d", j)
			}
		}
	}
}

// TestShipmentOverWire requests a Fig. 2 shipment and answers covered
// queries locally, matching server answers.
func TestShipmentOverWire(t *testing.T) {
	ds, pool, srv, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	ext := ds.Extent
	center := ext.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 1000, Y: center.Y - 1000},
		Max: geom.Point{X: center.X + 1000, Y: center.Y + 1000},
	}

	ship, err := c.FetchShipment(window, 1<<20, ds.RecordBytes)
	if err != nil {
		t.Fatalf("shipment: %v", err)
	}
	if ship.Len() == 0 {
		t.Fatal("empty shipment")
	}
	if ship.Coverage.IsEmpty() || !ship.Coverage.ContainsRect(window) {
		t.Fatalf("coverage %v does not include window %v", ship.Coverage, window)
	}
	if got := srv.Stats().Shipments; got != 1 {
		t.Fatalf("shipment counter = %d", got)
	}

	// A window inside the coverage must be answerable locally with the
	// same ids the server returns.
	inner := geom.Rect{
		Min: geom.Point{X: center.X - 800, Y: center.Y - 800},
		Max: geom.Point{X: center.X + 800, Y: center.Y + 800},
	}
	local, err := ship.Answer(core.Range(inner), 0)
	if err != nil {
		t.Fatalf("local answer: %v", err)
	}
	want := pool.RangeAppend(nil, inner)
	gotIDs := make([]uint32, len(local))
	for i, r := range local {
		gotIDs[i] = r.ID
	}
	if !sameIDsUnordered(gotIDs, want) {
		t.Fatalf("local answer %d ids, server %d ids", len(gotIDs), len(want))
	}
}

// TestConcurrentLoad is the acceptance load test: ≥32 connections complete
// ≥10k mixed queries against a live server with zero errors (run under
// -race via the package test command).
func TestConcurrentLoad(t *testing.T) {
	ds, _, srv, addr := testWorld(t, nil)
	const (
		conns      = 32
		perWorker  = 320 // 32 × 320 = 10240 ≥ 10k
		goroutines = conns
	)
	c := newClient(t, addr, conns)
	ext := ds.Extent

	var completed, failed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perWorker; i++ {
				cx := ext.Min.X + rng.Float64()*ext.Width()
				cy := ext.Min.Y + rng.Float64()*ext.Height()
				pt := geom.Point{X: cx, Y: cy}
				var err error
				switch i % 4 {
				case 0:
					_, err = c.PointIDs(pt, 0)
				case 1:
					half := 50 + rng.Float64()*800
					_, err = c.RangeIDs(geom.Rect{
						Min: geom.Point{X: cx - half, Y: cy - half},
						Max: geom.Point{X: cx + half, Y: cy + half},
					})
				case 2:
					_, err = c.Nearest(pt)
				case 3:
					_, err = c.KNearest(pt, 1+rng.Intn(6))
				}
				if err != nil {
					failed.Add(1)
					t.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d queries failed", failed.Load())
	}
	if got := completed.Load(); got < 10000 {
		t.Fatalf("only %d queries completed", got)
	}
	st := srv.Stats()
	if st.Served < 10000 || st.Errors != 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if c.Retries() != 0 {
		t.Fatalf("client retried %d times under nominal load", c.Retries())
	}
}

// TestPipelining writes a burst of requests on one raw connection before
// reading anything, then matches all responses by request id.
func TestPipelining(t *testing.T) {
	ds, pool, _, addr := testWorld(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	ext := ds.Extent
	center := ext.Center()
	const burst = 20
	want := make(map[uint32][]uint32, burst)
	for i := 0; i < burst; i++ {
		half := 100 + float64(i)*150
		w := geom.Rect{
			Min: geom.Point{X: center.X - half, Y: center.Y - half},
			Max: geom.Point{X: center.X + half, Y: center.Y + half},
		}
		id := uint32(1000 + i)
		want[id] = pool.RangeAppend(nil, w)
		if _, err := proto.WriteMessage(nc, &proto.QueryMsg{
			ID: id, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w,
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < burst; i++ {
		msg, _, err := proto.ReadMessage(nc)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		lst, ok := msg.(*proto.IDListMsg)
		if !ok {
			t.Fatalf("response %d: unexpected %v", i, msg.Type())
		}
		w, ok := want[lst.ID]
		if !ok {
			t.Fatalf("response for unknown/duplicate id %d", lst.ID)
		}
		delete(want, lst.ID)
		if !sameIDs(lst.IDs, w) {
			t.Fatalf("pipelined answer %d mismatched", lst.ID)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d responses missing", len(want))
	}
}

// TestAdmissionControl saturates a MaxInFlight=2 server with slow requests
// and expects CodeOverload refusals, while admitted requests still succeed.
func TestAdmissionControl(t *testing.T) {
	_, _, srv, addr := testWorld(t, func(cfg *Config) {
		cfg.MaxInFlight = 2
		cfg.testDelay = 300 * time.Millisecond
	})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const burst = 6
	for i := 0; i < burst; i++ {
		if _, err := proto.WriteMessage(nc, &proto.QueryMsg{
			ID: uint32(i), Kind: proto.KindPoint, Mode: proto.ModeIDs,
			Point: geom.Point{X: 1, Y: 1},
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	nc.SetReadDeadline(time.Now().Add(15 * time.Second))
	overloads, served := 0, 0
	for i := 0; i < burst; i++ {
		msg, _, err := proto.ReadMessage(nc)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		switch m := msg.(type) {
		case *proto.IDListMsg:
			served++
		case *proto.ErrorMsg:
			if m.Code != proto.CodeOverload {
				t.Fatalf("unexpected error %v", m)
			}
			overloads++
		default:
			t.Fatalf("unexpected %v", msg.Type())
		}
	}
	if overloads == 0 {
		t.Fatal("no overload refusals from a saturated server")
	}
	if served == 0 {
		t.Fatal("saturated server served nothing")
	}
	if got := srv.Stats().Overloads; got != uint64(overloads) {
		t.Fatalf("overload counter %d, saw %d", got, overloads)
	}
}

// TestDeadline forces execution past the request deadline and expects
// CodeDeadline.
func TestDeadline(t *testing.T) {
	_, _, srv, addr := testWorld(t, func(cfg *Config) {
		cfg.testDelay = 100 * time.Millisecond
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	if _, err := proto.WriteMessage(nc, &proto.QueryMsg{
		ID: 9, Kind: proto.KindPoint, Mode: proto.ModeIDs,
		Point:         geom.Point{X: 1, Y: 1},
		TimeoutMicros: 10_000, // 10ms deadline vs 100ms execution
	}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, _, err := proto.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(*proto.ErrorMsg)
	if !ok || em.Code != proto.CodeDeadline {
		t.Fatalf("got %v, want deadline error", msg.Type())
	}
	if srv.Stats().Deadlines != 1 {
		t.Fatalf("deadline counter = %d", srv.Stats().Deadlines)
	}
}

// TestGracefulShutdown verifies Shutdown drains in-flight requests (their
// responses arrive) and then refuses new connections. The request is alone on
// its connection, so what Shutdown waits out is the connection's reader
// itself, mid-execution.
func TestGracefulShutdown(t *testing.T) {
	_, _, srv, addr := testWorld(t, func(cfg *Config) {
		cfg.testDelay = 150 * time.Millisecond
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Launch a slow request, then shut down while it is in flight.
	if _, err := proto.WriteMessage(nc, &proto.QueryMsg{
		ID: 77, Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: geom.Point{X: 1, Y: 1},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the server admit it

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, _, err := proto.ReadMessage(nc)
	if err != nil {
		t.Fatalf("in-flight response lost during shutdown: %v", err)
	}
	if _, ok := msg.(*proto.IDListMsg); !ok {
		t.Fatalf("in-flight request answered with %v", msg.Type())
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if in, sp := srv.metrics.inline.Value(), srv.metrics.spawned.Value(); in != 1 || sp != 0 {
		t.Fatalf("inline=%d spawned=%d: the drained request did not run on its reader", in, sp)
	}

	// New connections must be refused (or immediately closed).
	if nc2, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := proto.ReadMessage(nc2); err == nil {
			t.Fatal("shut-down server answered a new connection")
		}
		nc2.Close()
	}
}

// TestMalformedFrameDropsConn sends garbage and expects the connection to be
// closed without taking the server down.
func TestMalformedFrameDropsConn(t *testing.T) {
	_, _, _, addr := testWorld(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // oversized frame header
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("expected the server to drop the connection")
	}
	nc.Close()

	// The server must still answer fresh connections.
	c := newClient(t, addr, 1)
	if _, err := c.PointIDs(geom.Point{X: 1, Y: 1}, 0); err != nil {
		t.Fatalf("server unhealthy after malformed frame: %v", err)
	}
}

func sameIDsUnordered(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[uint32]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
		if seen[x] < 0 {
			return false
		}
	}
	return true
}

// sameIDs reports whether got, a point, range or filter answer off the wire,
// is want, the pool's answer, in the order contract's form: ascending, each
// id once.
func sameIDs(got, want []uint32) bool { return slices.Equal(got, ascending(want)) }

// ascending is a pool answer in the order contract's form.
func ascending(ids []uint32) []uint32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}
