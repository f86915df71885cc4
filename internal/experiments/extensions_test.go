package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mobispatial/internal/core"
	"mobispatial/internal/geom"
)

func TestClockSweepShape(t *testing.T) {
	pts, err := ClockSweep(nycDS(), 6, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d sweep points", len(pts))
	}
	// Fully-client wall time scales inversely with the clock; fully-server
	// barely moves (communication-bound).
	if pts[3].FullyClientSecs >= pts[0].FullyClientSecs/4 {
		t.Errorf("8× clock cut fully-client only %.3f → %.3f s",
			pts[0].FullyClientSecs, pts[3].FullyClientSecs)
	}
	ratio := pts[3].FullyServerSecs / pts[0].FullyServerSecs
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("fully-server wall time moved %.2f× across the clock sweep", ratio)
	}
	var buf bytes.Buffer
	if err := WriteClockSweep(&buf, pts, 6, 30); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MhzC/MhzS") {
		t.Error("rendering incomplete")
	}
}

func TestLoadSweepShape(t *testing.T) {
	pts, err := LoadSweep(nycDS(), 6, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("%d sweep points", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	// Load leaves fully-client untouched and degrades fully-server in both
	// metrics, monotonically.
	if first.FullyClientSecs != last.FullyClientSecs || first.FullyClientJ != last.FullyClientJ {
		t.Error("server load affected fully-client execution")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].FullyServerSecs <= pts[i-1].FullyServerSecs {
			t.Errorf("fully-server time not monotone at ρ=%.2f", pts[i].Utilization)
		}
		if pts[i].FullyServerJ <= pts[i-1].FullyServerJ {
			t.Errorf("fully-server energy not monotone at ρ=%.2f", pts[i].Utilization)
		}
	}
	var buf bytes.Buffer
	if err := WriteLoadSweep(&buf, pts, 6, 30); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "utilization") {
		t.Error("rendering incomplete")
	}
}

func TestCompareBroadcastShape(t *testing.T) {
	ds := nycDS()
	c := ds.Segments[999].Midpoint()
	window := geom.Rect{
		Min: geom.Point{X: c.X - 800, Y: c.Y - 800},
		Max: geom.Point{X: c.X + 800, Y: c.Y + 800},
	}
	cmp, err := CompareBroadcast(ds, window, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Items <= 0 || cmp.PullJ <= 0 || cmp.BroadcastJ <= 0 {
		t.Fatalf("degenerate comparison: %+v", cmp)
	}
	// Broadcast trades latency for receive-only operation: its latency must
	// exceed pull's (the client waits for the cycle), and its energy must
	// stay within an order of magnitude of pull (it burns no transmit
	// power).
	if cmp.BroadcastLatency <= cmp.PullLatency {
		t.Errorf("broadcast latency %.3f not above pull %.3f", cmp.BroadcastLatency, cmp.PullLatency)
	}
	if cmp.BroadcastJ > cmp.PullJ*10 {
		t.Errorf("broadcast energy %.4f implausibly above pull %.4f", cmp.BroadcastJ, cmp.PullJ)
	}
	var buf bytes.Buffer
	if err := WriteBroadcastComparison(&buf, cmp, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "broadcast (1,m index)") {
		t.Error("rendering incomplete")
	}
}

func TestSessionAdaptiveWins(t *testing.T) {
	results, err := Session(SessionConfig{DS: nycDS(), Queries: 40})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SessionResult{}
	for _, r := range results {
		byName[r.Strategy] = r
	}
	ada, okA := byName["adaptive"]
	local, okL := byName["all-local"]
	server, okS := byName["all-server"]
	if !okA || !okL || !okS {
		t.Fatalf("missing strategies: %+v", results)
	}
	// The adaptive policy must beat both fixed extremes on energy over a
	// mixed workload (that is its purpose), and it must actually mix.
	if ada.EnergyJ >= local.EnergyJ || ada.EnergyJ >= server.EnergyJ {
		t.Fatalf("adaptive %.4f J not below fixed (local %.4f, server %.4f)",
			ada.EnergyJ, local.EnergyJ, server.EnergyJ)
	}
	if ada.Offloaded == 0 || ada.Offloaded == 40 {
		t.Fatalf("adaptive did not mix: offloaded %d of 40", ada.Offloaded)
	}
	var buf bytes.Buffer
	if err := WriteSession(&buf, results, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "adaptive") {
		t.Error("rendering incomplete")
	}
}

// TestSessionDecisionsPinnedBySeed holds the adaptive engine's choices on PA
// to the values EXPERIMENTS.md quotes ("offloading 17 of 60" at the default
// seed). At seeds 1, 4 and 777 the count depends on scheme.Choose's 5 % band
// (without it 1–2 of the 60 flip), so an edit to the rule fails here rather
// than drifting the document.
func TestSessionDecisionsPinnedBySeed(t *testing.T) {
	for _, tc := range []struct{ seed, offloaded int64 }{{42, 17}, {1, 21}, {4, 18}, {777, 16}} {
		results, err := Session(SessionConfig{DS: paDS(), Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if ada := results[len(results)-1]; ada.Strategy != "adaptive" || ada.Offloaded != tc.offloaded {
			t.Errorf("seed %d: %s offloaded %d of 60, want adaptive offloading %d", tc.seed, ada.Strategy, ada.Offloaded, tc.offloaded)
		}
	}
}

func TestWriteFigureBars(t *testing.T) {
	fig := mustAdequate(t, Config{DS: nycDS(), Kind: core.PointQuery, Runs: 10})
	var buf bytes.Buffer
	if err := WriteFigureBars(&buf, fig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Energy bars") || !strings.Contains(out, "TTT") {
		t.Errorf("bars missing expected content:\n%s", out)
	}
	// Every bar line must have exactly barWidth cells between the pipes.
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			j := strings.LastIndexByte(line, '|')
			if j-i-1 != barWidth {
				t.Errorf("bar width %d != %d in %q", j-i-1, barWidth, line)
			}
		}
	}
	// Degenerate figure: nothing to plot.
	var empty bytes.Buffer
	if err := WriteFigureBars(&empty, Figure{Series: []Series{{}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no energy to plot") {
		t.Error("degenerate case not handled")
	}
}

func TestInsufficientSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	v, err := InsufficientSeedSweep(InsufficientConfig{
		DS: paDS(), BudgetBytes: 1 << 20, Trials: 1,
		Proximities: []int{0, 100, 200},
	}, []int64{4242, 777})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.EnergyCrossovers) != 2 || len(v.CyclesCrossovers) != 2 {
		t.Fatalf("sweep shape: %+v", v)
	}
	// The invariant claimed in the rendering: at every seed, any cycles
	// crossover comes at or after the energy crossover.
	for i := range v.Seeds {
		e, c := v.EnergyCrossovers[i], v.CyclesCrossovers[i]
		if c >= 0 && (e < 0 || c < e) {
			t.Fatalf("seed %d: cycles crossover %d before energy %d", v.Seeds[i], c, e)
		}
	}
	var buf bytes.Buffer
	if err := WriteInsufficientVariance(&buf, v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "seed sensitivity") {
		t.Error("rendering incomplete")
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report in -short mode")
	}
	var buf bytes.Buffer
	err := WriteReport(&buf, ReportConfig{Runs: 10, Trials: 1, SkipExtensions: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# mobispatial — generated evaluation report",
		"Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
		"Energy at the mobile client",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
