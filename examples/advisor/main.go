// Advisor: uses the paper's §4.1 analytic trade-off model as a library. The
// workload is first characterized by executing it against the real index
// with a counting recorder (no machine simulation), then the closed-form
// model prices both sides per bandwidth and scheme.Choose says under which
// objective — performance, energy — offloading is picked. The example then
// validates the prediction for one point against the full simulator.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"

	"mobispatial/internal/core"
	"mobispatial/internal/cpu"
	"mobispatial/internal/dataset"
	"mobispatial/internal/energy"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
	"mobispatial/internal/sim"
)

func main() {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "advisor-demo", NumSegments: 30000, RecordBytes: 76,
		Extent:   geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 30_000, Y: 30_000}},
		Clusters: 6, ClusterStdFrac: 0.08, UniformFrac: 0.25,
		StreetSegs: [2]int{3, 14}, SegLen: [2]float64{50, 160},
		GridBias: 0.5, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		log.Fatal(err)
	}

	// Characterize a downtown range query by counting its abstract
	// operations — this is cheap (no machine model attached).
	window := geom.Rect{Min: geom.Point{X: 12_000, Y: 12_000}, Max: geom.Point{X: 16_000, Y: 16_000}}
	var counts ops.Counts
	cands := tree.Search(window, &counts)
	costs := cpu.DefaultOpCosts()
	filterInstr := float64(counts.Ops[ops.OpMBRTest])*float64(costs[ops.OpMBRTest].Instr) +
		float64(counts.Ops[ops.OpNodeVisit])*float64(costs[ops.OpNodeVisit].Instr)
	refineInstr := float64(len(cands)) * float64(costs[ops.OpRefineRange].Instr)
	// A single-issue client: cycles ≈ instructions plus a miss allowance.
	fullyLocal := (filterInstr + refineInstr) * 1.25

	// Offloading fully to the server with the data replicated: the uplink
	// carries the request, the downlink the matching ids.
	hits := len(cands) // upper bound on the reply size
	in := scheme.AnalyticInputs{
		CFullyLocal:  fullyLocal,
		CLocal:       0,
		CProtocol:    3000,
		CW2:          (filterInstr + refineInstr) / 2.6, // server IPC
		ServerHz:     1e9,
		PacketTxBits: float64(proto.Packetize(proto.QueryRequestBytes).WireBytes * 8),
		PacketRxBits: float64(proto.Packetize(proto.IDListBytes(hits)).WireBytes * 8),
		Client:       energy.DefaultClientModel(), // Table 2 at 1 km, 125 MHz
	}

	fmt.Printf("query window %v: %d filter candidates\n", window, len(cands))
	fmt.Printf("fully-local estimate: %.2f Mcycles\n\n", fullyLocal/1e6)
	fmt.Printf("%10s %14s %14s %12s %12s\n", "bandwidth", "cycle ratio", "energy ratio", "offload for", "")
	for _, mbps := range []float64{1, 2, 4, 6, 8, 11, 20} {
		in.BandwidthBps = mbps * 1e6
		stay, offload := in.FullyLocal(), in.Partitioned(scheme.FullyServer)
		perf := scheme.Choose(scheme.Performance, stay, offload).Scheme == scheme.FullyServer
		en := scheme.Choose(scheme.Energy, stay, offload).Scheme == scheme.FullyServer
		verdict := "neither"
		switch {
		case perf && en:
			verdict = "both"
		case perf:
			verdict = "performance"
		case en:
			verdict = "energy"
		}
		cycleRatio, energyRatio := offload.Over(stay)
		fmt.Printf("%8.0f M %14.2f %14.2f %12s\n", mbps, cycleRatio, energyRatio, verdict)
	}

	// Validate one point with the full execution-driven simulator.
	fmt.Println("\nvalidating the 11 Mbps prediction against the full simulator:")
	for _, s := range []core.Scheme{core.FullyClient, core.FullyServer} {
		p := sim.DefaultParams()
		p.BandwidthBps = 11e6
		sys, err := sim.New(p)
		if err != nil {
			log.Fatal(err)
		}
		eng := core.NewEngineWithTree(ds, tree, sys)
		if _, err := eng.Run(core.Range(window), s, core.DataAtClient); err != nil {
			log.Fatal(err)
		}
		r := sys.Result()
		fmt.Printf("  %-13v: %10.3f mJ, %12d cycles\n",
			s, r.Energy.Total()*1e3, r.TotalClientCycles())
	}
}
