package core

// The quantitative trade-off model of §4.1: closed-form conditions under
// which offloading work to the server beats executing fully at the client,
// from the performance and the energy perspectives. The experiment harness
// uses the full simulation; this model is the paper's intuition pump and is
// exposed for the advisor CLI and as a cheap pre-filter.

import "mobispatial/internal/energy"

// AnalyticInputs are the §4.1 parameters, in the paper's notation.
type AnalyticInputs struct {
	// BandwidthBps is B, the effective wireless bandwidth (bits/s).
	BandwidthBps float64
	// CFullyLocal is the client cycles of a fully-local execution.
	CFullyLocal float64
	// CLocal is the client cycles of the locally-executed portion (w1+w3).
	CLocal float64
	// CProtocol is the client cycles of protocol processing.
	CProtocol float64
	// CW2 is the server cycles of the offloaded portion.
	CW2 float64
	// ServerHz is MhzS (in Hz).
	ServerHz float64
	// PacketTxBits / PacketRxBits are the total transmitted / received
	// message sizes in bits (wire bytes × 8).
	PacketTxBits float64
	PacketRxBits float64
	// Client is the client's clock (MhzC) and power table, and the stage
	// prices every Joule below is a sum of.
	Client energy.ClientModel
}

// TxSeconds is PacketTx/B.
func (a AnalyticInputs) TxSeconds() float64 { return a.PacketTxBits / a.BandwidthBps }

// RxSeconds is PacketRx/B.
func (a AnalyticInputs) RxSeconds() float64 { return a.PacketRxBits / a.BandwidthBps }

// WaitSeconds is the client wall time blocked on server work: Cw2/MhzS.
func (a AnalyticInputs) WaitSeconds() float64 { return a.CW2 / a.ServerHz }

// PartitionedCycles returns the client-clock cycles of the partitioned
// execution: CTx + Cwait + CRx + Clocal + Cprotocol, with
// CTx = (PacketTx/B)·MhzC, Cwait = (Cw2/MhzS)·MhzC.
func (a AnalyticInputs) PartitionedCycles() float64 {
	return (a.TxSeconds()+a.RxSeconds()+a.WaitSeconds())*a.Client.ClientHz +
		a.CLocal + a.CProtocol
}

// FullyLocalCycles returns CFullyLocal.
func (a AnalyticInputs) FullyLocalCycles() float64 { return a.CFullyLocal }

// SavesCycles reports the §4.1 performance condition: partitioning wins
// when CFullyLocal > CTx + Cw2·(MhzC/MhzS) + CRx + CLocal + CProtocol.
func (a AnalyticInputs) SavesCycles() bool {
	return a.CFullyLocal > a.PartitionedCycles()
}

// FullyLocalJoules returns the fully-local energy: CFullyLocal/MhzC seconds
// of computation with the NIC asleep.
func (a AnalyticInputs) FullyLocalJoules() float64 {
	j, _ := a.Client.Compute(a.CFullyLocal / a.Client.ClientHz)
	return j
}

// PartitionedJoules returns the partitioned-execution energy: the
// transmitter and receiver run for the transfer times, the NIC idles while
// the server works (the core blocked throughout), and the client pays
// compute power for its local and protocol portions.
func (a AnalyticInputs) PartitionedJoules() float64 {
	m := a.Client
	tx, _ := m.Tx(a.TxSeconds())
	rx, _ := m.Rx(a.RxSeconds())
	wait, _ := m.Wait(a.WaitSeconds())
	local, _ := m.Compute((a.CLocal + a.CProtocol) / m.ClientHz)
	return tx + rx + wait + local
}

// SavesEnergy reports the §4.1 energy condition.
func (a AnalyticInputs) SavesEnergy() bool {
	return a.FullyLocalJoules() > a.PartitionedJoules()
}

// Verdict summarizes both §4.1 conditions.
type Verdict struct {
	SavesCycles bool
	SavesEnergy bool
	// CycleRatio is partitioned/fully-local cycles (<1 = partitioning
	// faster); EnergyRatio likewise.
	CycleRatio  float64
	EnergyRatio float64
}

// Advise evaluates both conditions.
func (a AnalyticInputs) Advise() Verdict {
	v := Verdict{
		SavesCycles: a.SavesCycles(),
		SavesEnergy: a.SavesEnergy(),
	}
	if a.CFullyLocal > 0 {
		v.CycleRatio = a.PartitionedCycles() / a.CFullyLocal
	}
	if fl := a.FullyLocalJoules(); fl > 0 {
		v.EnergyRatio = a.PartitionedJoules() / fl
	}
	return v
}
