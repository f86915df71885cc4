package client

import (
	"testing"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
	"mobispatial/internal/sim"
)

// TestPlannerPricesLikeTheSimulatorsChooser: with the whole map shipped, no
// round trip and no batching, the live planner and the simulator's adaptive
// chooser fill the §4.1 inputs of "offload, ids back" with the same cycles
// and bits for the same tree and bandwidth — one work estimator and one
// price list under both.
func TestPlannerPricesLikeTheSimulatorsChooser(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "one-price-list",
		NumSegments:    5000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 30000, Y: 30000}},
		Clusters:       4,
		ClusterStdFrac: 0.1,
		UniformFrac:    0.3,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.5,
		Seed:           47,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	const bps = 6e6
	c, err := New(Config{Addr: "127.0.0.1:1"}) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	c.SetLink(0, bps)
	p := NewPlanner(c)
	ship := &Shipment{Coverage: ds.Extent, Tree: tree, recordBytes: ds.RecordBytes}

	params := sim.DefaultParams()
	params.BandwidthBps = bps
	sys, err := sim.New(params)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngineWithTree(ds, tree, sys)

	center := ds.Extent.Center()
	for _, q := range []scheme.Query{
		scheme.Range(geom.Rect{Min: center, Max: center}.Expand(3000)),
		scheme.Range(geom.Rect{Min: geom.Point{X: 100, Y: 100}, Max: geom.Point{X: 400, Y: 400}}),
		scheme.Point(center),
		scheme.Point(ds.Segments[11].A),
	} {
		live, simulated := p.analyticInputs(ship, q), eng.AnalyticInputs(scheme.FullyServer, q)
		for _, f := range []struct {
			name       string
			live, simd float64
		}{
			{"CFullyLocal", live.CFullyLocal, simulated.CFullyLocal},
			{"CLocal", live.CLocal, simulated.CLocal},
			{"CProtocol", live.CProtocol, simulated.CProtocol},
			{"CW2", live.CW2, simulated.CW2},
			{"PacketTxBits", live.PacketTxBits, simulated.PacketTxBits},
			{"PacketRxBits", live.PacketRxBits, simulated.PacketRxBits},
			{"BandwidthBps", live.BandwidthBps, simulated.BandwidthBps},
		} {
			if f.live != f.simd || f.live == 0 {
				t.Errorf("%v %v: planner %s = %g, simulator's chooser %g", q.Kind, q.Window, f.name, f.live, f.simd)
			}
		}
	}
}
