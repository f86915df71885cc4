package core

import (
	"math"
	"testing"

	"mobispatial/internal/energy"
	"mobispatial/internal/scheme"
)

// The §4.1 model's qualitative properties, read the way every decider reads
// them: through its two estimates and scheme.Choose.

// baseInputs models a mid-size range query: ~5e6 client cycles fully-local,
// modest messages, C/S = 1/8.
func baseInputs() scheme.AnalyticInputs {
	m := energy.DefaultClientModel() // 125 MHz, Table 2 at 1 km
	m.PClient = 0.3
	return scheme.AnalyticInputs{
		BandwidthBps: 2e6,
		CFullyLocal:  5e6,
		CLocal:       2e5,
		CProtocol:    1e5,
		CW2:          4e5,
		ServerHz:     1e9,
		PacketTxBits: 1000 * 8,
		PacketRxBits: 4000 * 8, // id list: the data-present reply
		Client:       m,
	}
}

// offloads reports whether the model's partitioning is chosen over the
// fully-local execution under o.
func offloads(o scheme.Objective, a scheme.AnalyticInputs) bool {
	return scheme.Choose(o, a.FullyLocal(), a.Partitioned(scheme.FullyServer)).Scheme == scheme.FullyServer
}

func TestAdvisorComputeHeavyQueryOffloads(t *testing.T) {
	a := baseInputs()
	cycleRatio, _ := a.Partitioned(scheme.FullyServer).Over(a.FullyLocal())
	if !offloads(scheme.Performance, a) {
		t.Fatalf("compute-heavy query should offload for performance: ratio %.3f", cycleRatio)
	}
	if cycleRatio >= 1 {
		t.Fatalf("cycle ratio %.3f inconsistent with the choice", cycleRatio)
	}
}

func TestAdvisorTinyQueryStaysLocal(t *testing.T) {
	// A point query: nearly no local compute, one packet each way — the
	// §6.1.1 result that offloading never pays.
	a := baseInputs()
	a.CFullyLocal = 3e4
	a.CW2 = 3e3
	a.PacketRxBits = 600 * 8
	if offloads(scheme.Performance, a) {
		t.Fatal("tiny query should not offload for performance")
	}
	if offloads(scheme.Energy, a) {
		t.Fatal("tiny query should not offload for energy")
	}
}

func TestAdvisorEnergyNeedsMoreBandwidthThanCycles(t *testing.T) {
	// §6.1.1: schemes "start doing better in performance earlier than in
	// terms of energy" as bandwidth grows, because transmit Joules are more
	// expensive than transmit seconds. Find both crossover bandwidths.
	a := baseInputs()
	a.CFullyLocal = 2.2e6 // make the trade-off bandwidth-sensitive
	cyclesCross, energyCross := math.Inf(1), math.Inf(1)
	for b := 0.5e6; b <= 30e6; b += 0.1e6 {
		a.BandwidthBps = b
		if math.IsInf(cyclesCross, 1) && offloads(scheme.Performance, a) {
			cyclesCross = b
		}
		if math.IsInf(energyCross, 1) && offloads(scheme.Energy, a) {
			energyCross = b
		}
	}
	if math.IsInf(cyclesCross, 1) || math.IsInf(energyCross, 1) {
		t.Fatalf("no crossover found (cycles %v, energy %v)", cyclesCross, energyCross)
	}
	if energyCross <= cyclesCross {
		t.Fatalf("energy crossover %.1f Mbps should come after cycles crossover %.1f Mbps",
			energyCross/1e6, cyclesCross/1e6)
	}
}

func TestAdvisorMonotoneInBandwidth(t *testing.T) {
	a := baseInputs()
	prevCycles := math.Inf(1)
	prevEnergy := math.Inf(1)
	for b := 1e6; b <= 20e6; b += 1e6 {
		a.BandwidthBps = b
		if c := a.PartitionedCycles(); c > prevCycles {
			t.Fatalf("partitioned cycles not monotone at %.0f Mbps", b/1e6)
		} else {
			prevCycles = c
		}
		if e := a.PartitionedJoules(); e > prevEnergy {
			t.Fatalf("partitioned energy not monotone at %.0f Mbps", b/1e6)
		} else {
			prevEnergy = e
		}
	}
}

func TestAdvisorSlowClientFavorsOffload(t *testing.T) {
	fast := baseInputs()
	fast.Client.ClientHz = 500e6
	slow := baseInputs()
	slow.Client.ClientHz = 62.5e6
	// Ratios: partitioned/fully-local. The slow client gains more from
	// offloading (communication costs the same seconds, local compute more).
	slowRatio, _ := slow.Partitioned(scheme.FullyServer).Over(slow.FullyLocal())
	fastRatio, _ := fast.Partitioned(scheme.FullyServer).Over(fast.FullyLocal())
	if slowRatio >= fastRatio {
		t.Fatalf("slow client ratio %.3f not better than fast %.3f", slowRatio, fastRatio)
	}
}

func TestAdvisorShorterDistanceFavorsOffloadEnergy(t *testing.T) {
	far := baseInputs()
	near := baseInputs()
	near.Client = near.Client.At(100)
	// Larger uplink so transmit power matters.
	far.PacketTxBits, near.PacketTxBits = 50000*8, 50000*8
	if near.PartitionedJoules() >= far.PartitionedJoules() {
		t.Fatal("shorter distance did not cut partitioned energy")
	}
}

// TestAdvisorRatiosZeroSafe: a fully-local side priced at zero gives the
// advisors' ratio columns nothing to divide by; they read 0, not NaN.
func TestAdvisorRatiosZeroSafe(t *testing.T) {
	var a scheme.AnalyticInputs
	a.BandwidthBps = 1e6
	a.Client.ClientHz = 1e6
	a.ServerHz = 1e9
	a.PacketTxBits = 512
	if cycles, joules := a.Partitioned(scheme.FullyServer).Over(a.FullyLocal()); cycles != 0 || joules != 0 {
		t.Fatalf("zero fully-local side gave ratios %g, %g", cycles, joules)
	}
}
