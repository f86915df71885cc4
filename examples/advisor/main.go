// Advisor: uses the paper's §4.1 analytic trade-off model as a library. The
// workload is first characterized by executing it against the real index
// with a counting recorder (no machine simulation), then scheme.Prices — the
// simulator's instruction table — turns the counts into both sides' cycles,
// the closed-form model prices them per bandwidth, and scheme.Choose says
// under which objective — performance, energy — offloading is picked. The
// example then validates the prediction for one point against the full
// simulator.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/energy"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
	"mobispatial/internal/sim"
)

func main() {
	ds, tree := world()
	window := geom.Rect{Min: geom.Point{X: 12_000, Y: 12_000}, Max: geom.Point{X: 16_000, Y: 16_000}}
	in, cands := offloadInputs(ds, tree, window)

	fmt.Printf("query window %v: %d filter candidates\n", window, cands)
	fmt.Printf("fully-local estimate: %.2f Mcycles\n\n", in.CFullyLocal/1e6)
	fmt.Printf("%10s %14s %14s %12s %12s\n", "bandwidth", "cycle ratio", "energy ratio", "offload for", "")
	for _, mbps := range []float64{1, 2, 4, 6, 8, 11, 20} {
		in.BandwidthBps = mbps * 1e6
		stay, offload := in.FullyLocal(), in.Partitioned(scheme.FullyServer)
		perf := scheme.Choose(scheme.Performance, stay, offload).Scheme == scheme.FullyServer
		en := scheme.Choose(scheme.Energy, stay, offload).Scheme == scheme.FullyServer
		cycleRatio, energyRatio := offload.Over(stay)
		fmt.Printf("%8.0f M %14.2f %14.2f %12s\n", mbps, cycleRatio, energyRatio, scheme.OffloadFor(perf, en))
	}

	// Validate one point with the full execution-driven simulator.
	fmt.Println("\nvalidating the 11 Mbps prediction against the full simulator:")
	for _, s := range []core.Scheme{core.FullyClient, core.FullyServer} {
		r, err := simulate(ds, tree, window, s, 11e6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13v: %10.3f mJ, %12d cycles\n",
			s, r.Energy.Total()*1e3, r.TotalClientCycles())
	}
}

// world is the demo city and its packed R-tree.
func world() (*dataset.Dataset, *rtree.Tree) {
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
	return ds, tree
}

// offloadInputs characterizes a range query by counting its walk's abstract
// operations (scheme.CountWork) — cheap, no machine model attached — and
// prices it fully local against fully offloaded with the data replicated (the
// reply carries the matching ids) on Table 2's client at 1 km. It also
// returns the candidate count.
func offloadInputs(ds *dataset.Dataset, tree *rtree.Tree, window geom.Rect) (scheme.AnalyticInputs, int) {
	w, _ := scheme.CountWork(scheme.Range(window), tree, ds.RecordBytes, nil)
	prices := scheme.DefaultPrices()
	in := prices.Inputs(scheme.FullyServer, &w, 1)
	in.Client = energy.DefaultClientModel()
	return in, int(w.Candidates)
}

// simulate runs the window under s in the full simulator at the given
// bandwidth.
func simulate(ds *dataset.Dataset, tree *rtree.Tree, window geom.Rect, s core.Scheme, bps float64) (sim.Result, error) {
	p := sim.DefaultParams()
	p.BandwidthBps = bps
	sys, err := sim.New(p)
	if err != nil {
		return sim.Result{}, err
	}
	if _, err := core.NewEngineWithTree(ds, tree, sys).Run(core.Range(window), s, core.DataAtClient); err != nil {
		return sim.Result{}, err
	}
	return sys.Result(), nil
}
