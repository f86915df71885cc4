// fault_soak_test.go: the degraded-link acceptance tests. A real server and
// a real client talk across an internal/faultlink injector, and the suite
// asserts the contract the breaker and fallback exist for: under drops,
// stalls, resets, and total outages, every query either succeeds, fails
// cleanly within its time budget, or is answered by the local fallback —
// never a hang, never a corrupted pooled message.
package client_test

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/faultlink"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// faultWorld builds a dataset, its worker pool, and a live server, returning
// the pool (for local fallbacks and ground-truth answers) and the address.
func faultWorld(t testing.TB) (*dataset.Dataset, *mutable.Pool, string) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "fault-soak",
		NumSegments:    4000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 20000, Y: 20000}},
		Clusters:       4,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.25,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.6,
		Seed:           41,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	st, addr := mqserve(t, ds)
	return ds, st.Pool, addr
}

// wholeMap is the all-client scheme's local state: every record of ds in a
// shipment whose coverage is the plane. Built by its caller it carries no
// epoch, so it only ever serves degraded.
func wholeMap(t testing.TB, ds *dataset.Dataset) *client.Shipment {
	t.Helper()
	recs := make([]proto.Record, ds.Len())
	for i, seg := range ds.Segments {
		recs[i] = proto.Record{ID: uint32(i), Seg: seg}
	}
	inf := math.Inf(1)
	ship, err := client.NewShipment(&proto.ShipmentMsg{
		Coverage: geom.Rect{Min: geom.Point{X: -inf, Y: -inf}, Max: geom.Point{X: inf, Y: inf}},
		Records:  recs,
	}, ds.RecordBytes)
	if err != nil {
		t.Fatalf("whole-map shipment: %v", err)
	}
	return ship
}

// faultClient builds a client dialing through inj, with the breaker and
// (optionally) the whole map as its local state.
func faultClient(t testing.TB, addr string, inj *faultlink.Injector, ds *dataset.Dataset, withFallback bool) *client.Client {
	t.Helper()
	cfg := faultConfig(addr, inj)
	if withFallback {
		cfg.Shipment = wholeMap(t, ds)
	}
	c, err := client.New(cfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// faultConfig is the degraded-link suite's client: short timeouts, a
// three-failure breaker, every connection dialed through inj.
func faultConfig(addr string, inj *faultlink.Injector) client.Config {
	return client.Config{
		Addr:           addr,
		Conns:          4,
		RequestTimeout: 300 * time.Millisecond,
		MaxRetries:     2,
		Breaker: client.BreakerConfig{
			Enabled:          true,
			FailureThreshold: 3,
			ProbeInterval:    100 * time.Millisecond,
		},
		Dial: inj.DialFunc(nil),
	}
}

// soakWindow deterministically places the i-th range query.
func soakWindow(ds *dataset.Dataset, i int) geom.Rect {
	c := ds.Extent.Center()
	off := float64(i%7) * 150
	return geom.Rect{
		Min: geom.Point{X: c.X - 900 + off, Y: c.Y - 900 - off},
		Max: geom.Point{X: c.X + 900 + off, Y: c.Y + 900 - off},
	}
}

func sortedIDs(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFaultSoak pipelines single and batched queries through lossy and
// stall-heavy links under -race. The invariant: every operation returns
// within its retry budget — success, clean failure, or local fallback — and
// successful range answers always match the pool's ground truth, proving no
// pooled message was corrupted along any retry or fallback path.
func TestFaultSoak(t *testing.T) {
	ds, pool, addr := faultWorld(t)

	profiles := map[string]faultlink.Profile{
		"lossy": {Seed: 7, DropProb: 0.05, ResetProb: 0.03,
			Latency: time.Millisecond, Jitter: time.Millisecond},
		"stall": {Seed: 11, StallProb: 0.10, StallFor: 80 * time.Millisecond},
	}
	// One op may burn MaxRetries+1 attempts of RequestTimeout plus backoff;
	// anything past that budget is a hang.
	const opBudget = 3*300*time.Millisecond + 500*time.Millisecond

	for name, prof := range profiles {
		prof := prof
		t.Run(name, func(t *testing.T) {
			inj := faultlink.New(prof)
			c := faultClient(t, addr, inj, ds, true)

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var sc shard.Scratch
					for i := 0; i < 30; i++ {
						start := time.Now()
						switch i % 3 {
						case 0:
							w := soakWindow(ds, g*30+i)
							ids, err := c.RangeIDs(w)
							if err == nil {
								want := sortedIDs(pool.RangeAppend(nil, w))
								if !equalIDs(sortedIDs(ids), want) {
									t.Errorf("range answer diverged from ground truth: got %d ids, want %d", len(ids), len(want))
								}
							}
						case 1:
							p := ds.Seg(uint32((g*31 + i) % ds.Len())).A
							if recs, err := c.Point(p, core.PointEps); err == nil && len(recs) == 0 {
								t.Errorf("point query on a segment endpoint found nothing")
							}
						default:
							p := ds.Extent.Center()
							if nn := pool.NearestWith(p, &sc); nn.OK {
								if recs, err := c.KNearest(p, 3); err == nil && len(recs) == 0 {
									t.Errorf("kNN on a non-empty dataset found nothing")
								}
							}
						}
						if el := time.Since(start); el > opBudget {
							t.Errorf("op %d/%d took %v — past the %v retry budget (hang)", g, i, el, opBudget)
						}
						// Every 10th iteration exercises the batched path.
						if i%10 == 9 {
							qs := []proto.QueryMsg{
								{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: soakWindow(ds, i)},
								{Kind: proto.KindPoint, Mode: proto.ModeData, Point: ds.Seg(uint32(i)).A, Eps: core.PointEps},
							}
							start := time.Now()
							res, err := c.QueryBatch(qs)
							if err == nil && len(res) != 2 {
								t.Errorf("batch returned %d results for 2 queries", len(res))
							}
							if el := time.Since(start); el > opBudget {
								t.Errorf("batch took %v — past the %v retry budget (hang)", el, opBudget)
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestFaultOutageFallbackCompletes is the headline acceptance test: under a
// scripted total outage, a fallback-equipped client completes 100% of point,
// range, and NN queries locally, with answers identical to the pool's ground
// truth, and the breaker trips open so the radio is left alone.
func TestFaultOutageFallbackCompletes(t *testing.T) {
	ds, pool, addr := faultWorld(t)
	inj := faultlink.New(faultlink.Profile{Seed: 3})
	c := faultClient(t, addr, inj, ds, true)
	inj.ForceOutage(true)

	var sc shard.Scratch
	const n = 60
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			w := soakWindow(ds, i)
			ids, err := c.RangeIDs(w)
			if err != nil {
				t.Fatalf("range %d failed during outage despite fallback: %v", i, err)
			}
			if want := sortedIDs(pool.RangeAppend(nil, w)); !equalIDs(sortedIDs(ids), want) {
				t.Fatalf("range %d: fallback answer diverged (%d ids, want %d)", i, len(ids), len(want))
			}
		case 1:
			p := ds.Seg(uint32(i * 13 % ds.Len())).A
			recs, err := c.Point(p, core.PointEps)
			if err != nil {
				t.Fatalf("point %d failed during outage despite fallback: %v", i, err)
			}
			if len(recs) == 0 {
				t.Fatalf("point %d: fallback found nothing at a segment endpoint", i)
			}
		default:
			p := ds.Extent.Center()
			recs, err := c.KNearest(p, 5)
			if err != nil {
				t.Fatalf("kNN %d failed during outage despite fallback: %v", i, err)
			}
			want, ok := pool.KNearestAppend(nil, p, 5, &sc)
			if !ok {
				t.Fatal("pool kNN unsupported")
			}
			if len(recs) != len(want) {
				t.Fatalf("kNN %d: fallback returned %d, pool %d", i, len(recs), len(want))
			}
			for j := range want {
				if recs[j].ID != want[j].ID {
					t.Fatalf("kNN %d: rank %d = id %d, pool says %d", i, j, recs[j].ID, want[j].ID)
				}
			}
		}
	}

	// Batched queries complete locally too.
	res, err := c.QueryBatch([]proto.QueryMsg{
		{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: soakWindow(ds, 1)},
		{Kind: proto.KindPoint, Mode: proto.ModeData, Point: ds.Seg(7).A, Eps: core.PointEps},
	})
	if err != nil {
		t.Fatalf("batch failed during outage despite fallback: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch item %d failed during outage: %v", i, r.Err)
		}
	}

	d := c.Degraded()
	if d.Breaker != client.BreakerOpen {
		t.Fatalf("breaker = %v after sustained outage, want open", d.Breaker)
	}
	if d.Trips == 0 {
		t.Fatal("breaker never tripped")
	}
	if d.Fallbacks < n {
		t.Fatalf("fallbacks = %d, want >= %d (every query answered locally)", d.Fallbacks, n)
	}
	if d.FallbackJoules <= 0 {
		t.Fatalf("fallback energy not accounted: %+v", d)
	}
}

// TestFaultDegradedIsOneLedger: with the breaker open and the query covered,
// it does not matter who asks. Planner.Execute over a shipment it cannot
// prove fresh plans fully-server, the exchange fails fast, and the answer
// comes from the shipment exactly as Client.Range's does: both count into
// Degraded().Fallbacks, both spans read fallback-local, neither is booked as
// a scheme the planner chose.
func TestFaultDegradedIsOneLedger(t *testing.T) {
	ds, pool, addr := faultWorld(t)
	inj := faultlink.New(faultlink.Profile{Seed: 7})
	hub := obs.NewHub()
	hub.Trace = obs.NewTracer(128, 1)
	cfg := faultConfig(addr, inj)
	cfg.Obs, cfg.Shipment = hub, wholeMap(t, ds)
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := client.NewPlanner(c)

	inj.ForceOutage(true)
	for i := 0; i < 6 && c.BreakerState() != client.BreakerOpen; i++ {
		c.RangeIDs(soakWindow(ds, i))
	}
	if c.BreakerState() != client.BreakerOpen {
		t.Fatalf("breaker = %v after outage traffic, want open", c.BreakerState())
	}
	w := soakWindow(ds, 3)
	want := sortedIDs(pool.RangeAppend(nil, w))
	base := c.Degraded().Fallbacks
	seen := len(hub.Trace.Snapshot().Sampled)

	res, err := p.Execute(core.Range(w))
	if err != nil {
		t.Fatalf("planner under an open breaker: %v", err)
	}
	if got := recordIDs(res.Records); res.Plan != client.PlanLocal || !equalIDs(got, want) {
		t.Fatalf("planner: plan %v, %d ids; want fully-client and the pool's %d", res.Plan, len(got), len(want))
	}
	recs, err := c.Range(w)
	if err != nil {
		t.Fatalf("raw call under an open breaker: %v", err)
	}
	if got := recordIDs(recs); !equalIDs(got, want) {
		t.Fatalf("raw call: %d ids, want the pool's %d", len(got), len(want))
	}

	if got := c.Degraded().Fallbacks - base; got != 2 {
		t.Fatalf("Degraded().Fallbacks grew by %d over the two calls, want 2", got)
	}
	spans := hub.Trace.Snapshot().Sampled[seen:]
	if len(spans) != 2 {
		t.Fatalf("%d spans for the two calls, want one each", len(spans))
	}
	for i, sp := range spans {
		if sp.Scheme != "fallback-local" {
			t.Errorf("span %d reads %q, want fallback-local", i, sp.Scheme)
		}
	}
	snap := hub.Reg.Snapshot()
	for _, scheme := range []string{"fully-client", "server-ids", "fully-server"} {
		if n := snap.Counter(obs.Name("client_plans_total", "scheme", scheme)); n != 0 {
			t.Errorf("client_plans_total{scheme=%q} = %d for a degraded execution, want 0", scheme, n)
		}
	}
}

// TestFaultBreakerRecovery verifies the half-open probe path: when the link
// returns, the breaker re-closes within roughly one probe interval and
// queries go back to the server.
func TestFaultBreakerRecovery(t *testing.T) {
	ds, _, addr := faultWorld(t)
	inj := faultlink.New(faultlink.Profile{Seed: 5})
	c := faultClient(t, addr, inj, ds, true)

	// Trip the breaker under a forced outage.
	inj.ForceOutage(true)
	for i := 0; i < 6 && c.BreakerState() != client.BreakerOpen; i++ {
		c.RangeIDs(soakWindow(ds, i)) // answered locally; failures feed the breaker
	}
	if c.BreakerState() != client.BreakerOpen {
		t.Fatalf("breaker = %v after outage traffic, want open", c.BreakerState())
	}

	// Restore the link; keep querying until a probe re-closes the breaker.
	inj.ForceOutage(false)
	restored := time.Now()
	const probeInterval = 100 * time.Millisecond
	deadline := restored.Add(probeInterval + 900*time.Millisecond)
	for c.BreakerState() != client.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker still %v %v after link returned", c.BreakerState(), time.Since(restored))
		}
		if _, err := c.RangeIDs(soakWindow(ds, 2)); err != nil {
			t.Fatalf("query failed after link restore: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d := c.Degraded()
	if d.Probes == 0 {
		t.Fatal("breaker re-closed without a probe")
	}
	// Healthy again: a fresh query must reach the server, not the fallback.
	before := c.Degraded().Fallbacks
	if _, err := c.RangeIDs(soakWindow(ds, 3)); err != nil {
		t.Fatalf("post-recovery query failed: %v", err)
	}
	if c.Degraded().Fallbacks != before {
		t.Fatal("post-recovery query was answered by the fallback")
	}
}

// TestFaultNoFallbackFailsFast verifies the other half of the contract:
// without a fallback, a dead link means fast clean errors — ErrBreakerOpen
// in microseconds once tripped — never a hang and never a success.
func TestFaultNoFallbackFailsFast(t *testing.T) {
	ds, _, addr := faultWorld(t)
	inj := faultlink.New(faultlink.Profile{Seed: 9})
	c := faultClient(t, addr, inj, ds, false)
	inj.ForceOutage(true)

	// First queries burn real attempts until the threshold trips the breaker.
	for i := 0; i < 4; i++ {
		if _, err := c.RangeIDs(soakWindow(ds, i)); err == nil {
			t.Fatal("query succeeded during a forced outage with no fallback")
		}
	}
	if c.BreakerState() != client.BreakerOpen {
		t.Fatalf("breaker = %v, want open", c.BreakerState())
	}
	// Tripped: failures are now immediate and typed.
	start := time.Now()
	_, err := c.RangeIDs(soakWindow(ds, 9))
	elapsed := time.Since(start)
	if !errors.Is(err, client.ErrBreakerOpen) {
		t.Fatalf("open-breaker error = %v, want ErrBreakerOpen", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("open-breaker failure took %v, want fail-fast", elapsed)
	}
}

// TestFaultBatchResultsSurviveRelease is the pooled-message aliasing
// regression test. QueryBatch's contract: returned IDs and Records are
// caller-owned copies, and the pooled BatchReplyMsg is released before
// return. The old code handed out slices aliasing the pooled reply, so the
// next decode on that connection silently rewrote earlier results. The test
// captures one batch's answers, churns the same connection with many more
// batches (forcing pool reuse), and verifies the first answers against
// ground truth computed before the churn.
func TestFaultBatchResultsSurviveRelease(t *testing.T) {
	ds, pool, addr := faultWorld(t)
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w := soakWindow(ds, 0)
	first, err := c.QueryBatch([]proto.QueryMsg{
		{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
		{Kind: proto.KindPoint, Mode: proto.ModeData, Point: ds.Seg(3).A, Eps: core.PointEps},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	wantIDs := sortedIDs(pool.RangeAppend(nil, w))
	wantRecs := append([]proto.Record(nil), first[1].Records...)

	// Churn: every exchange decodes into the pooled reply the old code let
	// `first` alias.
	for i := 1; i <= 20; i++ {
		if _, err := c.QueryBatch([]proto.QueryMsg{
			{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: soakWindow(ds, i)},
			{Kind: proto.KindNN, Mode: proto.ModeData, Point: ds.Extent.Center(), K: 4},
		}); err != nil {
			t.Fatalf("churn batch %d: %v", i, err)
		}
	}

	if !equalIDs(sortedIDs(first[0].IDs), wantIDs) {
		t.Fatalf("first batch's IDs were rewritten by later exchanges: %d ids, want %d", len(first[0].IDs), len(wantIDs))
	}
	if len(first[1].Records) != len(wantRecs) {
		t.Fatalf("first batch's Records length changed: %d, want %d", len(first[1].Records), len(wantRecs))
	}
	for i := range wantRecs {
		if first[1].Records[i] != wantRecs[i] {
			t.Fatalf("first batch's Record %d was rewritten: %+v, want %+v", i, first[1].Records[i], wantRecs[i])
		}
	}
}

// BenchmarkBreakerCleanPath prices the breaker's overhead on a healthy
// link: the allow/onSuccess gate added to every round trip.
func BenchmarkBreakerCleanPath(b *testing.B) {
	ds, _, addr := faultWorld(b)
	inj := faultlink.New(faultlink.Profile{Seed: 1})
	c := faultClient(b, addr, inj, ds, true)
	p := ds.Seg(0).A
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PointIDs(p, core.PointEps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegradedLocal prices a degraded-mode query: breaker open, answer
// served from the whole-map shipment — the paper's fully-client scheme as a
// resilience path.
func BenchmarkDegradedLocal(b *testing.B) {
	ds, _, addr := faultWorld(b)
	inj := faultlink.New(faultlink.Profile{Seed: 1})
	c := faultClient(b, addr, inj, ds, true)
	inj.ForceOutage(true)
	p := ds.Seg(0).A
	// Trip the breaker so the steady state is pure fail-fast + fallback.
	for i := 0; i < 4; i++ {
		c.PointIDs(p, core.PointEps)
	}
	if c.BreakerState() != client.BreakerOpen {
		b.Fatalf("breaker = %v, want open", c.BreakerState())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PointIDs(p, core.PointEps); err != nil {
			b.Fatal(err)
		}
	}
}
