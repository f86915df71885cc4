package client

import (
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
)

// batchPlanner builds a planner over a synthetic shipment without a live
// server: analyticInputs only consults the link estimate and the local
// sub-index, so the wire-pricing math can be checked in isolation.
func batchPlanner(t *testing.T) (*Planner, *Shipment) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "batch-pricing",
		NumSegments:    2000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 20000, Y: 20000}},
		Clusters:       3,
		ClusterStdFrac: 0.1,
		UniformFrac:    0.3,
		StreetSegs:     [2]int{2, 6},
		SegLen:         [2]float64{40, 120},
		GridBias:       0.5,
		Seed:           41,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	c, err := New(Config{Addr: "127.0.0.1:1"}) // never dialed
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	c.SetLink(5*time.Millisecond, 2e6)
	return NewPlanner(c), &Shipment{Coverage: ds.Extent, Tree: tree}
}

// TestPlannerBatchAmortizesWire verifies the §4.1 inputs price batched
// offloading the way MsgBatchQuery prices it on the wire: with SetBatch(B),
// the per-query tx/rx bits and protocol cycles are the B-query exchange
// totals over B — strictly cheaper than a private frame per query, and
// matching proto's batch size model exactly.
func TestPlannerBatchAmortizesWire(t *testing.T) {
	p, ship := batchPlanner(t)
	q := scheme.Query{
		Kind: scheme.RangeQuery,
		Window: geom.Rect{
			Min: geom.Point{X: 9000, Y: 9000},
			Max: geom.Point{X: 11000, Y: 11000},
		},
	}
	single := p.analyticInputs(ship, q)

	const B = 16
	p.SetBatch(B)
	batched := p.analyticInputs(ship, q)

	if batched.PacketTxBits >= single.PacketTxBits {
		t.Errorf("batched tx bits/query = %g, want < unbatched %g",
			batched.PacketTxBits, single.PacketTxBits)
	}
	if batched.PacketRxBits >= single.PacketRxBits {
		t.Errorf("batched rx bits/query = %g, want < unbatched %g",
			batched.PacketRxBits, single.PacketRxBits)
	}
	if batched.CProtocol >= single.CProtocol {
		t.Errorf("batched protocol cycles/query = %g, want < unbatched %g",
			batched.CProtocol, single.CProtocol)
	}
	// Per-query tx bits must equal the batch request's wire size over B.
	wantTx := float64(proto.Packetize(proto.BatchQueryBytes(B)).WireBytes*8) / B
	if batched.PacketTxBits != wantTx {
		t.Errorf("batched tx bits/query = %g, want BatchQueryBytes pricing %g",
			batched.PacketTxBits, wantTx)
	}
	// The work estimate itself must not change — batching amortizes the
	// exchange, it does not make the queries cheaper to execute.
	if batched.CFullyLocal != single.CFullyLocal || batched.CW2 != single.CW2 {
		t.Errorf("batching changed compute estimates: %+v vs %+v", batched, single)
	}

	// SetBatch(0) clamps back to unbatched pricing.
	p.SetBatch(0)
	restored := p.analyticInputs(ship, q)
	if restored.PacketTxBits != single.PacketTxBits || restored.CProtocol != single.CProtocol {
		t.Errorf("SetBatch(0) did not restore unbatched pricing: %+v vs %+v", restored, single)
	}
}

// TestPlannerBatchFavorsOffload checks the chooser-visible consequence: on a
// link where unbatched offloading is marginal, batch pricing can only lower
// the offloaded estimate against the local one, under either objective — and
// so never turns an offloading choice back into a local one.
func TestPlannerBatchFavorsOffload(t *testing.T) {
	p, ship := batchPlanner(t)
	q := scheme.Query{
		Kind: scheme.RangeQuery,
		Window: geom.Rect{
			Min: geom.Point{X: 8000, Y: 8000},
			Max: geom.Point{X: 12000, Y: 12000},
		},
	}
	single := p.analyticInputs(ship, q)
	p.SetBatch(16)
	batched := p.analyticInputs(ship, q)
	offloaded := func(in scheme.AnalyticInputs) scheme.Estimate { return in.Partitioned(scheme.FullyServer) }
	singleCycles, singleEnergy := offloaded(single).Over(single.FullyLocal())
	batchedCycles, batchedEnergy := offloaded(batched).Over(batched.FullyLocal())
	if batchedEnergy > singleEnergy {
		t.Errorf("batch pricing raised the energy ratio: %g > %g", batchedEnergy, singleEnergy)
	}
	if batchedCycles > singleCycles {
		t.Errorf("batch pricing raised the cycle ratio: %g > %g", batchedCycles, singleCycles)
	}
	for _, o := range []scheme.Objective{scheme.Performance, scheme.Energy} {
		was := scheme.Choose(o, single.FullyLocal(), offloaded(single)).Scheme
		now := scheme.Choose(o, batched.FullyLocal(), offloaded(batched)).Scheme
		if was == scheme.FullyServer && now != scheme.FullyServer {
			t.Errorf("objective %d: batch pricing moved the choice from %v back to %v", o, was, now)
		}
	}
}

// TestPlanZeroAlloc: planning a covered query over a fresh shipment — build
// the inputs, read two estimates, scheme.Choose — is per-query work on the
// client's hot path and stays off the heap.
func TestPlanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p, ship := batchPlanner(t)
	ship.Epoch = 7
	p.c.install(ship, time.Now())
	q := scheme.Range(geom.Rect{Min: geom.Point{X: 9000, Y: 9000}, Max: geom.Point{X: 11000, Y: 11000}})
	if plan := p.Plan(q); plan == PlanServerData {
		t.Fatalf("plan %v: the query is not covered and fresh, nothing was chosen", plan)
	}
	if n := testing.AllocsPerRun(1000, func() { p.Plan(q) }); n != 0 {
		t.Errorf("Plan allocates %v times per covered, fresh range query", n)
	}
}
