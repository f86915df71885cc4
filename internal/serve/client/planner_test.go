package client_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/sim"
)

// plannerWorld builds a dataset, a live server, a client, a planner whose
// shipment covers the dataset center generously, and the simulator's packed
// tree over the dataset.
func plannerWorld(t testing.TB) (*dataset.Dataset, *rtree.Tree, *client.Client, *client.Planner) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "planner-test",
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
	_, addr := mqserve(t, ds)

	// The server is static, so the shipment stays provably fresh for as long
	// as the bound lets it; stretch the bound past any one test (some run the
	// simulator between fetching and planning) so these tests are about the
	// advisor alone. freshness_test.go is about the bound.
	c, err := client.New(client.WithMaxAge(client.Config{Addr: addr, Conns: 4}, time.Minute))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	p := client.NewPlanner(c)
	center := ds.Extent.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 2000, Y: center.Y - 2000},
		Max: geom.Point{X: center.X + 2000, Y: center.Y + 2000},
	}
	// A budget big enough to hold the whole dataset makes Coverage the full
	// bounds, so every test query below is covered.
	if err := p.FetchShipment(window, 8000*(ds.RecordBytes+rtree.EntryBytes)+1<<20, ds.RecordBytes); err != nil {
		t.Fatalf("shipment: %v", err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ds, tree, c, p
}

// TestPlannerSchemeChoice is the acceptance test: with a covered shipment
// and a realistic link, the planner answers point and NN queries fully at
// the client but offloads large range queries to the server — the paper's
// Fig. 4/5 qualitative result as a live routing decision.
func TestPlannerSchemeChoice(t *testing.T) {
	ds, _, c, p := plannerWorld(t)
	center := ds.Extent.Center()

	// A fast-RTT, high-bandwidth link (measured loopback conditions).
	c.SetLink(500*time.Microsecond, 1e9)

	pointQ := core.Point(center)
	nnQ := core.Nearest(center)
	knnQ := core.KNearest(center, 4)
	largeRange := core.Range(geom.Rect{
		Min: geom.Point{X: center.X - 20000, Y: center.Y - 20000},
		Max: geom.Point{X: center.X + 20000, Y: center.Y + 20000},
	})

	for _, tc := range []struct {
		name string
		q    core.Query
		want client.Plan
	}{
		{"point", pointQ, client.PlanLocal},
		{"nn", nnQ, client.PlanLocal},
		{"knn", knnQ, client.PlanLocal},
		{"large-range", largeRange, client.PlanServerIDs},
	} {
		if got := p.Plan(tc.q); got != tc.want {
			t.Errorf("%s: plan = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Execution must agree with the plan and return correct answers.
	res, err := p.Execute(largeRange)
	if err != nil {
		t.Fatalf("execute range: %v", err)
	}
	if res.Plan != client.PlanServerIDs {
		t.Fatalf("executed plan %v", res.Plan)
	}
	serverRecs, err := c.Range(largeRange.Window)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(serverRecs) {
		t.Fatalf("hybrid plan returned %d records, server %d", len(res.Records), len(serverRecs))
	}

	resPt, err := p.Execute(pointQ)
	if err != nil {
		t.Fatalf("execute point: %v", err)
	}
	if resPt.Plan != client.PlanLocal {
		t.Fatalf("point executed as %v", resPt.Plan)
	}

	// Outside the coverage the planner must go fully-server.
	outside := core.Point(geom.Point{X: ds.Extent.Max.X + 1000, Y: ds.Extent.Max.Y + 1000})
	if got := p.Plan(outside); got != client.PlanServerData {
		t.Errorf("uncovered query planned as %v", got)
	}
}

// TestPlannerRefusesOversizeK: the wire carries k in 16 bits. An offloading
// plan must refuse a larger k as the raw calls do — 65541 once went out as
// k = 5 and its five neighbours came back as the complete answer.
func TestPlannerRefusesOversizeK(t *testing.T) {
	ds, _, _, p := plannerWorld(t)
	outside := geom.Point{X: ds.Extent.Max.X + 1000, Y: ds.Extent.Max.Y + 1000}
	q := core.KNearest(outside, 65541)
	if plan := p.Plan(q); plan != client.PlanServerData {
		t.Fatalf("uncovered k-NN planned as %v", plan)
	}
	res, err := p.Execute(q)
	if err == nil || !strings.Contains(err.Error(), "exceeds wire limit") {
		t.Fatalf("Execute(k=65541) = %d records, err %v; want a refusal", len(res.Records), err)
	}
}

// TestPlannerTracksBandwidth checks the decision flips as the (simulated)
// link degrades: a mid-size range query offloads on a fast link but runs
// locally once the channel collapses — the liveserver example's story.
func TestPlannerTracksBandwidth(t *testing.T) {
	ds, _, c, p := plannerWorld(t)
	center := ds.Extent.Center()
	q := core.Range(geom.Rect{
		Min: geom.Point{X: center.X - 15000, Y: center.Y - 15000},
		Max: geom.Point{X: center.X + 15000, Y: center.Y + 15000},
	})

	c.SetLink(500*time.Microsecond, 1e9)
	fast := p.Plan(q)
	c.SetLink(20*time.Millisecond, 50e3) // 50 kbps disaster channel
	slow := p.Plan(q)
	if fast != client.PlanServerIDs || slow != client.PlanLocal {
		t.Fatalf("plan(fast)=%v plan(slow)=%v; want offload then local", fast, slow)
	}
}

// simClientCycles runs q under scheme in the full simulator at the given
// bandwidth and returns the client-observed cycles.
func simClientCycles(t *testing.T, ds *dataset.Dataset, tree *rtree.Tree,
	q core.Query, scheme core.Scheme, bwBps float64) int64 {
	t.Helper()
	params := sim.DefaultParams()
	params.BandwidthBps = bwBps
	sys, err := sim.New(params)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngineWithTree(ds, tree, sys)
	if _, err := eng.Run(q, scheme, core.DataAtClient); err != nil {
		t.Fatal(err)
	}
	return sys.Result().TotalClientCycles()
}

// TestPlannerCrossValidatesSimulator compares the live planner's
// local-vs-offload choice against the full simulator's verdict for the same
// queries at the same effective bandwidth — the networked planner must agree
// with the paper's model at operating points far from the break-even
// boundary.
func TestPlannerCrossValidatesSimulator(t *testing.T) {
	ds, tree, c, p := plannerWorld(t)
	center := ds.Extent.Center()

	cases := []struct {
		name  string
		q     core.Query
		bwBps float64
		rtt   time.Duration
	}{
		// Point query on a slow paper-grade link: trivially local work
		// versus a multi-ms transfer.
		{"point@2Mbps", core.Point(center), 2e6, 5 * time.Millisecond},
		// A large range on a fast link: thousands of refinements on a
		// 125 MHz client versus a 1 GHz server and a short id transfer.
		{"range@50Mbps", core.Range(geom.Rect{
			Min: geom.Point{X: center.X - 20000, Y: center.Y - 20000},
			Max: geom.Point{X: center.X + 20000, Y: center.Y + 20000},
		}), 50e6, time.Millisecond},
	}

	for _, tc := range cases {
		local := simClientCycles(t, ds, tree, tc.q, core.FullyClient, tc.bwBps)
		server := simClientCycles(t, ds, tree, tc.q, core.FullyServer, tc.bwBps)
		simOffloads := server < local

		c.SetLink(tc.rtt, tc.bwBps)
		plan := p.Plan(tc.q)
		planOffloads := plan != client.PlanLocal

		if planOffloads != simOffloads {
			t.Errorf("%s: planner offload=%v (plan %v) but simulator says offload=%v (client %d vs server %d cycles)",
				tc.name, planOffloads, plan, simOffloads, local, server)
		}
	}
}

// TestPlannerLocalAnswersMatchServer verifies that for a mix of covered
// queries the locally planned answers equal the server's, whatever plan was
// chosen.
func TestPlannerLocalAnswersMatchServer(t *testing.T) {
	ds, _, c, p := plannerWorld(t)
	c.SetLink(500*time.Microsecond, 1e9)
	center := ds.Extent.Center()
	rng := rand.New(rand.NewSource(9))

	for i := 0; i < 30; i++ {
		cx := center.X + (rng.Float64()-0.5)*3000
		cy := center.Y + (rng.Float64()-0.5)*3000
		var q core.Query
		switch i % 3 {
		case 0:
			q = core.Point(geom.Point{X: cx, Y: cy})
		case 1:
			half := 100 + rng.Float64()*900
			q = core.Range(geom.Rect{
				Min: geom.Point{X: cx - half, Y: cy - half},
				Max: geom.Point{X: cx + half, Y: cy + half},
			})
		case 2:
			q = core.Nearest(geom.Point{X: cx, Y: cy})
		}
		res, err := p.Execute(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var wantIDs []uint32
		switch q.Kind {
		case core.PointQuery:
			wantIDs, err = c.PointIDs(q.Point, 0)
		case core.RangeQuery:
			wantIDs, err = c.RangeIDs(q.Window)
		case core.NNQuery:
			nn, nerr := c.Nearest(q.Point)
			err = nerr
			if nn != nil {
				wantIDs = []uint32{nn.ID}
			}
		}
		if err != nil {
			t.Fatalf("server reference %d: %v", i, err)
		}
		got := make(map[uint32]bool, len(res.Records))
		for _, r := range res.Records {
			got[r.ID] = true
		}
		if len(got) != len(wantIDs) {
			t.Fatalf("query %d (%v, plan %v): %d records vs server's %d",
				i, q.Kind, res.Plan, len(got), len(wantIDs))
		}
		for _, id := range wantIDs {
			if !got[id] {
				t.Fatalf("query %d: missing id %d", i, id)
			}
		}
	}
}
