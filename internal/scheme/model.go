package scheme

// The quantitative trade-off model of §4.1: closed-form client cycles and
// Joules of executing a query fully at the client and of one partitioning of
// it. The experiment harness uses the full simulation; this model is the
// paper's intuition pump, and what every per-query decision is made over.

import "mobispatial/internal/energy"

// AnalyticInputs are the §4.1 parameters, in the paper's notation: one
// fully-local execution and one candidate partitioning of the same query.
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

// FullyLocal is the model's estimate of the fully-local side: FullyClient at
// CFullyLocal cycles of the client's clock.
func (a AnalyticInputs) FullyLocal() Estimate {
	return Estimate{FullyClient, a.FullyLocalJoules(), a.CFullyLocal / a.Client.ClientHz}
}

// Partitioned is the model's estimate of the partitioned side, labelled s —
// the scheme whose split of the work the inputs describe.
func (a AnalyticInputs) Partitioned(s Scheme) Estimate {
	return Estimate{s, a.PartitionedJoules(), a.PartitionedCycles() / a.Client.ClientHz}
}
