package core

import (
	"math"
	"testing"

	"mobispatial/internal/energy"
)

// baseInputs models a mid-size range query: ~5e6 client cycles fully-local,
// modest messages, C/S = 1/8.
func baseInputs() AnalyticInputs {
	m := energy.DefaultClientModel() // 125 MHz, Table 2 at 1 km
	m.PClient = 0.3
	return AnalyticInputs{
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

func TestAdvisorComputeHeavyQueryOffloads(t *testing.T) {
	a := baseInputs()
	v := a.Advise()
	if !v.SavesCycles {
		t.Fatalf("compute-heavy query should save cycles by offloading: ratio %.3f", v.CycleRatio)
	}
	if v.CycleRatio >= 1 {
		t.Fatalf("CycleRatio %.3f inconsistent with SavesCycles", v.CycleRatio)
	}
}

func TestAdvisorTinyQueryStaysLocal(t *testing.T) {
	// A point query: nearly no local compute, one packet each way — the
	// §6.1.1 result that offloading never pays.
	a := baseInputs()
	a.CFullyLocal = 3e4
	a.CW2 = 3e3
	a.PacketRxBits = 600 * 8
	v := a.Advise()
	if v.SavesCycles {
		t.Fatal("tiny query should not save cycles by offloading")
	}
	if v.SavesEnergy {
		t.Fatal("tiny query should not save energy by offloading")
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
		if math.IsInf(cyclesCross, 1) && a.SavesCycles() {
			cyclesCross = b
		}
		if math.IsInf(energyCross, 1) && a.SavesEnergy() {
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
	if slow.Advise().CycleRatio >= fast.Advise().CycleRatio {
		t.Fatalf("slow client ratio %.3f not better than fast %.3f",
			slow.Advise().CycleRatio, fast.Advise().CycleRatio)
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

func TestVerdictRatiosZeroSafe(t *testing.T) {
	var a AnalyticInputs
	a.BandwidthBps = 1e6
	a.Client.ClientHz = 1e6
	a.ServerHz = 1e9
	v := a.Advise()
	if v.CycleRatio != 0 || v.EnergyRatio != 0 {
		t.Fatalf("zero inputs gave ratios %+v", v)
	}
}
