package client_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
	"mobispatial/internal/serve/client"
)

// obsWorld is plannerWorld with client-side observability enabled and spans
// sampled 1-in-1.
func obsWorld(t *testing.T) (*dataset.Dataset, *client.Client, *client.Planner, *obs.Hub) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "obs-test",
		NumSegments:    4000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50000, Y: 50000}},
		Clusters:       4,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.25,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.6,
		Seed:           31,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	_, addr := mqserve(t, ds)

	hub := obs.NewHub()
	hub.Trace = obs.NewTracer(128, 1)
	c, err := client.New(client.Config{Addr: addr, Conns: 4, Obs: hub})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	p := client.NewPlanner(c)
	if err := p.FetchShipment(ds.Extent, 4000*(ds.RecordBytes+rtree.EntryBytes)+1<<20, ds.RecordBytes); err != nil {
		t.Fatalf("shipment: %v", err)
	}
	return ds, c, p, hub
}

func snapCounter(snap obs.Snapshot, name string) (uint64, bool) {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

func snapHist(snap obs.Snapshot, name string) (obs.HistValue, bool) {
	for _, h := range snap.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistValue{}, false
}

// TestPlannerRecordsSchemesAndPredictionError drives both advisor-chosen
// schemes through Execute and checks the per-scheme metrics, the modeled
// energy accumulation, and the predicted-vs-actual partitioning-error
// histograms.
func TestPlannerRecordsSchemesAndPredictionError(t *testing.T) {
	ds, c, p, hub := obsWorld(t)
	center := ds.Extent.Center()

	// Fast link: point queries stay local, a huge range offloads (ids back).
	c.SetLink(500*time.Microsecond, 1e9)

	for i := 0; i < 4; i++ {
		res, err := p.Execute(core.Point(center))
		if err != nil {
			t.Fatalf("point execute: %v", err)
		}
		if res.Plan != client.PlanLocal {
			t.Fatalf("point plan = %v, want fully-client", res.Plan)
		}
	}
	bigW := geom.Rect{
		Min: geom.Point{X: center.X - 20000, Y: center.Y - 20000},
		Max: geom.Point{X: center.X + 20000, Y: center.Y + 20000},
	}
	res, err := p.Execute(core.Range(bigW))
	if err != nil {
		t.Fatalf("range execute: %v", err)
	}
	if res.Plan != client.PlanServerIDs {
		t.Fatalf("big range plan = %v, want server-ids", res.Plan)
	}

	snap := hub.Reg.Snapshot()
	for scheme, want := range map[string]uint64{"fully-client": 4, "server-ids": 1} {
		name := obs.Name("client_plans_total", "scheme", scheme)
		if got, ok := snapCounter(snap, name); !ok || got != want {
			t.Errorf("%s = %d (present=%v), want %d", name, got, ok, want)
		}
		hname := obs.Name("client_exec_seconds", "scheme", scheme)
		if h, ok := snapHist(snap, hname); !ok || h.Count != want {
			t.Errorf("%s count = %d (present=%v), want %d", hname, h.Count, ok, want)
		}
		rname := obs.Name("client_plan_cycle_ratio", "scheme", scheme)
		if h, ok := snapHist(snap, rname); !ok || h.Count != want || h.Mean <= 0 {
			t.Errorf("%s count=%d mean=%g (present=%v), want count %d, mean > 0",
				rname, h.Count, h.Mean, ok, want)
		}
	}
	var joules float64
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "client_energy_joules_total") {
			joules += g.Value
		}
	}
	if joules <= 0 {
		t.Errorf("accumulated modeled energy = %g, want > 0", joules)
	}
	// Transport metrics from the offloaded query and the shipment fetch.
	if h, ok := snapHist(snap, "client_roundtrip_seconds"); !ok || h.Count == 0 {
		t.Error("client_roundtrip_seconds missing or empty")
	}
}

// offloadBigRange executes one range over most of obsWorld's map on a link so
// fast the planner offloads it, and returns the server-ids span it left: a
// single exchange's worth of plan, wire, server-exec and reply stages.
//
// 10 Gbps: the ~12 KB id reply models to ~10 µs of radio, well under the
// 40 µs and up a warm loopback exchange takes. At 1 Gbps the modeled transfer
// (94 µs) could exceed the measured wall time, which attributeExchange then
// scales to leave no server wait at all.
func offloadBigRange(t *testing.T, c *client.Client, p *client.Planner, hub *obs.Hub, center geom.Point) (span obs.SpanView, stages map[string]obs.StageView) {
	t.Helper()
	c.SetLink(500*time.Microsecond, 10e9)
	bigW := geom.Rect{
		Min: geom.Point{X: center.X - 20000, Y: center.Y - 20000},
		Max: geom.Point{X: center.X + 20000, Y: center.Y + 20000},
	}
	if _, err := p.Execute(core.Range(bigW)); err != nil {
		t.Fatalf("execute: %v", err)
	}
	snap := hub.Trace.Snapshot()
	found := false
	for _, sv := range snap.Sampled {
		if sv.Scheme == "server-ids" {
			span, found = sv, true
		}
	}
	if !found {
		t.Fatal("no server-ids span retained")
	}
	stages = map[string]obs.StageView{}
	for _, st := range span.Stages {
		stages[st.Stage] = st
	}
	return span, stages
}

// TestPlannerSpansCarryEnergy: an offloaded execution's span decomposes into
// the radio's wire and server-exec stages, charged for the measured link, and
// the client's processing of the exchange, charged from the price list
// (serialize). The plan and reply stages lap their seconds and are charged
// nothing: no host second becomes a Joule.
func TestPlannerSpansCarryEnergy(t *testing.T) {
	ds, c, p, hub := obsWorld(t)
	offloaded, stages := offloadBigRange(t, c, p, hub, ds.Extent.Center())
	if offloaded.Joules <= 0 {
		t.Errorf("span joules = %g, want > 0", offloaded.Joules)
	}
	if st, ok := stages["server-exec"]; !ok || st.Seconds <= 0 || st.Joules <= 0 {
		t.Errorf("server-exec stage: present=%v seconds=%g joules=%g, want all > 0", ok, st.Seconds, st.Joules)
	}
	// The wire stage exists whenever a bandwidth estimate is available.
	if st, ok := stages["wire"]; !ok || st.Joules <= 0 {
		t.Errorf("wire stage: present=%v joules=%g, want > 0", ok, st.Joules)
	}
	if st, ok := stages["serialize"]; !ok || st.Joules <= 0 || st.Cycles <= 0 {
		t.Errorf("serialize stage: present=%v joules=%g cycles=%g, want > 0", ok, st.Joules, st.Cycles)
	}
	for _, lapped := range []string{"plan", "reply"} {
		if st, ok := stages[lapped]; !ok || st.Seconds <= 0 || st.Joules != 0 || st.Cycles != 0 {
			t.Errorf("stage %q: present=%v seconds=%g joules=%g cycles=%g, want seconds > 0 and no charge",
				lapped, ok, st.Seconds, st.Joules, st.Cycles)
		}
	}
}

// TestExchangePricedOnce: one offloaded execution is one exchange, priced in
// one place (Client.roundTrip) from what it measured. The span's wire and
// serialize stages and the NIC ledger all read the frame bytes that moved —
// WireStats' deltas, 73 B up and 21+4n B down — at the link estimate in
// force, through the one cost model and the one price list; none re-derives
// the exchange from the catalogue's 64 B and 16+4n B, which is what the
// planner *predicts* with.
func TestExchangePricedOnce(t *testing.T) {
	ds, c, p, hub := obsWorld(t)
	w0, j0 := c.WireStats(), c.Degraded().RemoteNICJoules
	_, stages := offloadBigRange(t, c, p, hub, ds.Extent.Center())
	w1, j1 := c.WireStats(), c.Degraded().RemoteNICJoules
	if w1.Exchanges-w0.Exchanges != 1 {
		t.Fatalf("%d exchanges for one offloaded query", w1.Exchanges-w0.Exchanges)
	}
	tx, rx := int(w1.BytesTx-w0.BytesTx), int(w1.BytesRx-w0.BytesRx)
	bps := c.Link().BandwidthBps

	em := obs.DefaultEnergyModel()
	txSec, rxSec := em.TxSeconds(tx, bps), em.TxSeconds(rx, bps)
	txJ, _ := em.Tx(txSec)
	rxJ, _ := em.Rx(rxSec)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	wire := stages["wire"]
	if !near(wire.Seconds, txSec+rxSec) {
		t.Errorf("wire stage %.6g s, the %d+%d B that moved take %.6g s at %.3g bps",
			wire.Seconds, tx, rx, txSec+rxSec, bps)
	}
	if !near(wire.Joules, txJ+rxJ) {
		t.Errorf("wire stage %.6g J, Tx+Rx of the measured frames is %.6g J", wire.Joules, txJ+rxJ)
	}
	if want := em.NICExchangeJoules(tx, rx, 1, bps); !near(j1-j0, want) {
		t.Errorf("NIC ledger charged %.6g J, the same frames price to %.6g J", j1-j0, want)
	}
	// The client's processing of the exchange: the dispatch and the protocol
	// stack over those same frames, as the price list predicts CLocal +
	// CProtocol.
	prices := scheme.DefaultPrices()
	wantCycles := prices.Inputs(scheme.FullyServer, &scheme.Work{}, 1).CLocal +
		prices.ProtocolCycles(proto.Packetize(tx), proto.Packetize(rx))
	if got := stages["serialize"].Cycles; !near(got, wantCycles) {
		t.Errorf("serialize stage %.6g cycles, dispatch + protocol over the %d+%d B that moved is %.6g", got, tx, rx, wantCycles)
	}
}
