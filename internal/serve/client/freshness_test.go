package client_test

import (
	"net"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
	"mobispatial/internal/stack"
)

// semanticDataset is the shared world for the freshness tests.
func semanticDataset(t testing.TB) (*dataset.Dataset, *rtree.Tree) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "semantic-test",
		NumSegments:    8000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50000, Y: 50000}},
		Clusters:       6,
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
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ds, tree
}

// startSemServer serves pool on loopback and returns the address.
func startSemServer(t testing.TB, cfg serve.Config) string {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return listen(t, srv)
}

// mqserve builds what mqserve runs over ds and serves it on loopback.
func mqserve(t testing.TB, ds *dataset.Dataset) (*stack.Stack, string) {
	t.Helper()
	st, err := stack.Server{Dataset: ds}.Build()
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	t.Cleanup(st.Close)
	return st, listen(t, st.Server)
}

// listen serves srv on a loopback port and returns the address.
func listen(t testing.TB, srv *serve.Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	return lis.Addr().String()
}

// fetchWholeShipment pulls a shipment big enough to cover the whole dataset
// through a throwaway plain client.
func fetchWholeShipment(t testing.TB, addr string, ds *dataset.Dataset) *client.Shipment {
	t.Helper()
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer c.Close()
	ship, err := c.FetchShipment(centerWindow(ds, 2000), 8000*(ds.RecordBytes+rtree.EntryBytes)+1<<20, ds.RecordBytes)
	if err != nil {
		t.Fatalf("shipment: %v", err)
	}
	return ship
}

// slowLink makes the advisor pick fully-client for everything a shipment
// covers, so what is left to decide a query's place is coverage and
// freshness — the two things these tests are about.
func slowLink(c *client.Client) { c.SetLink(20*time.Millisecond, 50e3) }

// centerWindow is a square of the given half-width at the dataset's center.
func centerWindow(ds *dataset.Dataset, half float64) geom.Rect {
	c := ds.Extent.Center()
	return geom.Rect{Min: c, Max: c}.Expand(half)
}

// centerSegment is a short segment across the dataset's center: an object
// every query at the center must see once it is inserted.
func centerSegment(ds *dataset.Dataset) geom.Segment {
	c := ds.Extent.Center()
	return geom.Segment{A: geom.Point{X: c.X - 50, Y: c.Y - 50}, B: geom.Point{X: c.X + 50, Y: c.Y + 50}}
}

func recordIDs(recs []proto.Record) []uint32 {
	ids := make([]uint32, len(recs))
	for i := range recs {
		ids[i] = recs[i].ID
	}
	return sortedIDs(ids)
}

// executeOn runs q through the planner and reports the plan, the sorted
// answer ids and how many wire exchanges it took.
func executeOn(t *testing.T, c *client.Client, p *client.Planner, q core.Query) (client.Plan, []uint32, uint64) {
	t.Helper()
	before := c.WireStats().Exchanges
	res, err := p.Execute(q)
	if err != nil {
		t.Fatalf("execute %v: %v", q.Kind, err)
	}
	return res.Plan, recordIDs(res.Records), c.WireStats().Exchanges - before
}

// TestSemanticCacheServesLocally is the happy path over a static pool: a
// seeded shipment proves nothing by itself, so the first covered query goes
// to the wire; its reply primes the epoch hint, and from then on every
// covered query the planner chooses to run locally is answered from the
// shipment with the radio off — zero new exchanges, answers identical to the
// server's. Uncovered geometry still crosses the wire.
func TestSemanticCacheServesLocally(t *testing.T) {
	ds, tree := semanticDataset(t)
	pool, err := shard.Over(tree)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	addr := startSemServer(t, serve.Config{Pool: pool, Master: tree})
	ship := fetchWholeShipment(t, addr, ds)
	if ship.Epoch == 0 {
		t.Fatal("static-pool shipment carries no epoch hint")
	}

	oracle, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	c, err := client.New(client.WithMaxAge(client.Config{Addr: addr, Conns: 1, Shipment: ship}, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slowLink(c)
	p := client.NewPlanner(c)

	center := ds.Extent.Center()
	window := centerWindow(ds, 1200)

	// First covered query goes to the wire: the client has heard no hint
	// yet. The reply primes freshness.
	plan, _, wire := executeOn(t, c, p, core.Range(window))
	if plan != client.PlanServerData || wire != 1 {
		t.Fatalf("unprimed covered query: plan %v over %d exchanges, want fully-server over 1", plan, wire)
	}

	// From here on, covered queries must be local: exchanges frozen, results
	// equal to the server's.
	wired := c.WireStats().Exchanges
	for _, tc := range []struct {
		name string
		q    core.Query
		want func() ([]uint32, error)
	}{
		{"range", core.Range(window), func() ([]uint32, error) { return oracle.RangeIDs(window) }},
		{"point", core.Point(center), func() ([]uint32, error) { return oracle.PointIDs(center, 0) }},
		{"nearest", core.Nearest(center), func() ([]uint32, error) {
			nn, err := oracle.Nearest(center)
			if err != nil || nn == nil {
				return nil, err
			}
			return []uint32{nn.ID}, nil
		}},
		{"4-nearest", core.KNearest(center, 4), func() ([]uint32, error) {
			recs, err := oracle.KNearest(center, 4)
			return recordIDs(recs), err
		}},
	} {
		plan, got, _ := executeOn(t, c, p, tc.q)
		want, err := tc.want()
		if err != nil {
			t.Fatal(err)
		}
		if plan != client.PlanLocal || !slices.Equal(got, sortedIDs(want)) {
			t.Fatalf("%s: plan %v, %d ids; want fully-client and the server's %d", tc.name, plan, len(got), len(want))
		}
	}
	if got := c.WireStats().Exchanges; got != wired {
		t.Fatalf("covered queries touched the wire: exchanges %d -> %d", wired, got)
	}

	// Uncovered geometry goes to the wire.
	outside := core.Point(geom.Point{X: ds.Extent.Max.X + 1000, Y: ds.Extent.Max.Y + 1000})
	if plan, _, wire := executeOn(t, c, p, outside); plan != client.PlanServerData || wire != 1 {
		t.Fatalf("uncovered query: plan %v over %d exchanges, want fully-server over 1", plan, wire)
	}
}

// TestRawCallCrossesWireOverFreshShipment pins what the benchmark's planner
// rung assumes when it prices offloading with RangeIDs / PointIDs on a client
// that holds a shipment: a raw call is a wire exchange whenever the link is
// up, however fresh the shipment. Running locally by choice is the planner's
// decision alone.
func TestRawCallCrossesWireOverFreshShipment(t *testing.T) {
	ds, _, c, p := plannerWorld(t)
	slowLink(c)
	center := ds.Extent.Center()
	if plan := p.Plan(core.Point(center)); plan != client.PlanLocal {
		t.Fatalf("shipment not fresh for the planner: point planned %v", plan)
	}
	before := c.WireStats().Exchanges
	if _, err := c.RangeIDs(centerWindow(ds, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PointIDs(center, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.WireStats().Exchanges - before; got != 2 {
		t.Fatalf("two raw calls over a fresh shipment made %d wire exchanges, want 2", got)
	}
}

// TestSemanticCacheRetiresOnWrite drives the invalidation path over a mutable
// pool with a seeded shipment: another client's write changes the epoch hint,
// and once the bounded-staleness window lapses, the next covered query
// revalidates over the wire, observes the mismatch, and local answering stays
// off for good — the fresh answer includes the inserted record.
func TestSemanticCacheRetiresOnWrite(t *testing.T) {
	ds, tree := semanticDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatalf("mutable pool: %v", err)
	}
	t.Cleanup(pool.Close)
	addr := startSemServer(t, serve.Config{Pool: pool, Master: tree})
	ship := fetchWholeShipment(t, addr, ds) // before any write: epoch stamped
	if ship.Epoch == 0 {
		t.Fatal("unwritten mutable-pool shipment carries no epoch hint")
	}

	const maxAge = 250 * time.Millisecond
	c, err := client.New(client.WithMaxAge(client.Config{Addr: addr, Conns: 1, Shipment: ship}, maxAge))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slowLink(c)
	p := client.NewPlanner(c)
	writer, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	q := core.Range(centerWindow(ds, 1500))

	// Prime over the wire, then prove a local answer works while unwritten.
	if plan, _, wire := executeOn(t, c, p, q); plan != client.PlanServerData || wire != 1 {
		t.Fatalf("priming query: plan %v over %d exchanges", plan, wire)
	}
	if plan, _, wire := executeOn(t, c, p, q); plan != client.PlanLocal || wire != 0 {
		t.Fatalf("pre-write covered query not served locally: plan %v over %d exchanges", plan, wire)
	}

	// A write lands inside the window; the live hint moves away from the
	// shipment's epoch.
	const newID = 500000
	if _, err := writer.Move(newID, centerSegment(ds)); err != nil {
		t.Fatalf("insert: %v", err)
	}

	// The client may serve bounded-stale answers until its hint ages out;
	// after that every covered query must revalidate over the wire.
	time.Sleep(maxAge + 100*time.Millisecond)
	plan, ids, wire := executeOn(t, c, p, q)
	if plan != client.PlanServerData || wire != 1 {
		t.Fatalf("post-write query with an expired hint: plan %v over %d exchanges, want the wire", plan, wire)
	}
	if !slices.Contains(ids, newID) {
		t.Fatalf("revalidated answer is stale: inserted id %d missing from %d ids", newID, len(ids))
	}

	// The revalidation delivered a fresh hint, but it differs from the
	// shipment's epoch — local answering stays off permanently.
	if plan, _, wire := executeOn(t, c, p, q); plan != client.PlanServerData || wire != 1 {
		t.Fatalf("covered query answered from a retired shipment: plan %v over %d exchanges", plan, wire)
	}
}

// mutableWorld serves the freshness dataset from an updatable pool and
// returns a planner-equipped client on a slow link (no shipment yet) plus a
// second, plain client.
func mutableWorld(t *testing.T, maxAge time.Duration) (*dataset.Dataset, *client.Client, *client.Planner, *client.Client) {
	t.Helper()
	ds, tree := semanticDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatalf("mutable pool: %v", err)
	}
	t.Cleanup(pool.Close)
	addr := startSemServer(t, serve.Config{Pool: pool, Master: tree})
	c, err := client.New(client.WithMaxAge(client.Config{Addr: addr, Conns: 2}, maxAge))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	slowLink(c)
	other, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	return ds, c, client.NewPlanner(c), other
}

func fetchWhole(t *testing.T, p *client.Planner, ds *dataset.Dataset) {
	t.Helper()
	if err := p.FetchShipment(centerWindow(ds, 2000), 8000*(ds.RecordBytes+rtree.EntryBytes)+1<<20, ds.RecordBytes); err != nil {
		t.Fatalf("shipment: %v", err)
	}
}

// TestPlannerNeverLocalFromStaleShipment is the wrong-answer reproduction:
// the planner used to run a covered query at the client whatever the
// shipment's age or epoch.
func TestPlannerNeverLocalFromStaleShipment(t *testing.T) {
	const newID = 500000

	// A shipment cut after a write is cut from the written index: it
	// carries the hint read before the cut, holds the written object, and a
	// covered Execute answers at the client with what the raw calls return.
	t.Run("a shipment cut after a write", func(t *testing.T) {
		ds, c, p, other := mutableWorld(t, time.Minute)
		if _, err := other.Move(newID, centerSegment(ds)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		fetchWhole(t, p, ds)
		center, window := ds.Extent.Center(), centerWindow(ds, 100)
		if e := p.Shipment().Epoch; e == 0 {
			t.Fatal("a shipment cut after a write carries epoch 0")
		}
		if recs, err := p.Shipment().Answer(core.Point(center), 0); err != nil || !slices.Contains(recordIDs(recs), newID) {
			t.Fatalf("the shipment lacks the written id %d (%v)", newID, err)
		}
		wantPt, err := c.Point(center, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantRg, err := c.Range(window)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			plan, got, wire := executeOn(t, c, p, core.Point(center))
			if plan != client.PlanLocal || wire != 0 || !slices.Equal(got, recordIDs(wantPt)) || !slices.Contains(got, newID) {
				t.Fatalf("point: plan %v over %d exchanges, ids %v; want fully-client and the server's %v", plan, wire, got, recordIDs(wantPt))
			}
			plan, got, wire = executeOn(t, c, p, core.Range(window))
			if plan != client.PlanLocal || wire != 0 || !slices.Equal(got, recordIDs(wantRg)) || !slices.Contains(got, newID) {
				t.Fatalf("range: plan %v over %d exchanges, %d ids; want fully-client and the server's %d", plan, wire, len(got), len(wantRg))
			}
		}
	})

	// A shipment fetched before another client's write may answer locally
	// only inside the age bound; the first Execute after it goes to the
	// wire, sees the new id, and local answering stays off.
	t.Run("another client's write", func(t *testing.T) {
		const maxAge = 250 * time.Millisecond
		ds, c, p, other := mutableWorld(t, maxAge)
		fetchWhole(t, p, ds)
		fetched := time.Now()
		q := core.Point(ds.Extent.Center())
		plan, _, wire := executeOn(t, c, p, q)
		if time.Since(fetched) < maxAge && (plan != client.PlanLocal || wire != 0) {
			t.Fatalf("fresh shipment: plan %v over %d exchanges, want fully-client", plan, wire)
		}
		if _, err := other.Move(newID, centerSegment(ds)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		time.Sleep(maxAge + 100*time.Millisecond)
		for i := 0; i < 3; i++ {
			plan, got, wire := executeOn(t, c, p, q)
			if plan != client.PlanServerData || wire != 1 || !slices.Contains(got, newID) {
				t.Fatalf("execute %d after the bound: plan %v over %d exchanges, ids %v; want the wire and id %d",
					i, plan, wire, got, newID)
			}
		}
	})
}

// TestOwnWriteRetiresShipment: a write this client was acked for is an
// observed write. The ack carries no hint, so without retiring in update the
// client would keep answering from pre-write records for the whole age bound.
func TestOwnWriteRetiresShipment(t *testing.T) {
	ds, c, p, _ := mutableWorld(t, time.Minute)
	fetchWhole(t, p, ds)
	q := core.Point(ds.Extent.Center())
	if plan, _, wire := executeOn(t, c, p, q); plan != client.PlanLocal || wire != 0 {
		t.Fatalf("unwritten server, fresh shipment: plan %v over %d exchanges, want fully-client", plan, wire)
	}
	const newID = 500000
	if _, err := c.Move(newID, centerSegment(ds)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	plan, got, _ := executeOn(t, c, p, q)
	if plan != client.PlanServerData || !slices.Contains(got, newID) {
		t.Fatalf("first execute after own write: plan %v, ids %v; want fully-server with id %d", plan, got, newID)
	}
	// A re-fetch is the reset path: the new shipment is cut after the write,
	// so it answers at the client again, the written object included.
	fetchWhole(t, p, ds)
	if plan, got, wire := executeOn(t, c, p, q); plan != client.PlanLocal || wire != 0 || !slices.Contains(got, newID) {
		t.Fatalf("after re-fetch: plan %v over %d exchanges, ids %v; want fully-client with id %d", plan, wire, got, newID)
	}
}
