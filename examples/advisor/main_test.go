package main

import (
	"math"
	"testing"

	"mobispatial/internal/core"
	"mobispatial/internal/geom"
)

// TestEstimateTracksTheSimulator: the example's fully-local estimate — its
// counted walk priced by scheme.Prices — stays within 15 % of the cycles the
// execution-driven simulator charges the same query fully at the client.
// The gap left is what the price list does not model: cold I-cache misses
// and lines a read straddles.
func TestEstimateTracksTheSimulator(t *testing.T) {
	ds, tree := world()
	for _, window := range []geom.Rect{
		{Min: geom.Point{X: 12_000, Y: 12_000}, Max: geom.Point{X: 16_000, Y: 16_000}},
		{Min: geom.Point{X: 5_000, Y: 20_000}, Max: geom.Point{X: 11_000, Y: 26_000}},
	} {
		in, cands := offloadInputs(ds, tree, window)
		r, err := simulate(ds, tree, window, core.FullyClient, 11e6)
		if err != nil {
			t.Fatal(err)
		}
		got, want := in.CFullyLocal, float64(r.TotalClientCycles())
		t.Logf("window %v: %d candidates, estimated %.0f cycles, simulated %.0f", window, cands, got, want)
		if cands == 0 || math.Abs(got-want) > 0.15*want {
			t.Errorf("window %v (%d candidates): estimated %.0f cycles, simulated %.0f", window, cands, got, want)
		}
	}
}
