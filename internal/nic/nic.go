// Package nic models the client's wireless network interface card: the
// four-state power machine of §5.2 and Table 2 (TRANSMIT, RECEIVE, IDLE,
// SLEEP), based on the LMX3162 single-chip transceiver the paper cites.
//
// The SLEEP state consumes the least power but is physically disconnected —
// the NIC cannot even sense an incoming message — and takes 470 µs to exit.
// IDLE keeps carrier sense alive (used while awaiting the server's reply);
// TRANSMIT power depends strongly on the distance to the base station: the
// paper quotes 3089.1 mW at 1 km versus 1089.1 mW at 100 m.
package nic

import (
	"fmt"
	"math"
)

// State is a NIC power state.
type State uint8

// The four NIC power states of Table 2.
const (
	Transmit State = iota
	Receive
	Idle
	Sleep
	numStates
)

var stateNames = [numStates]string{"TRANSMIT", "RECEIVE", "IDLE", "SLEEP"}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) < int(numStates) {
		return stateNames[s]
	}
	return "State(?)"
}

// Table 2 constants (Watts and seconds).
const (
	// TxPower1Km is transmit power at 1 km range.
	TxPower1Km = 3.0891
	// TxPower100m is transmit power at 100 m range.
	TxPower100m = 1.0891
	// RxPower is receive power.
	RxPower = 0.165
	// IdlePower is carrier-sense idle power.
	IdlePower = 0.100
	// SleepPower is the disconnected sleep power.
	SleepPower = 0.0198
	// SleepExitLatency is the time to transition from SLEEP to an active
	// state [29].
	SleepExitLatency = 470e-6
	// BaseBandwidthBps is the paper's base effective bandwidth, 2 Mbps: what
	// the live client prices an exchange at until it has measured its link.
	BaseBandwidthBps = 2e6
)

// TxPowerAt returns the transmit power at the given range in meters, using a
// free-space d² amplifier law fitted through the two published points
// (electronics floor + amplifier term). It matches Table 2 exactly at 100 m
// and 1 km.
func TxPowerAt(distanceM float64) float64 {
	// Solve TxPower100m = a + b·100², TxPower1Km = a + b·1000².
	const (
		b = (TxPower1Km - TxPower100m) / (1000*1000 - 100*100)
		a = TxPower100m - b*100*100
	)
	if distanceM < 0 {
		distanceM = 0
	}
	return a + b*distanceM*distanceM
}

// Config parameterizes a NIC instance.
type Config struct {
	// DistanceM is the range to the base station in meters.
	DistanceM float64
	// DisableSleep keeps the NIC in IDLE instead of SLEEP whenever the
	// protocol would sleep it (the NIC-sleep ablation).
	DisableSleep bool
}

// NIC accumulates time and energy per power state over a simulation. It is
// a pure accounting machine: the protocol layer (internal/sim) decides when
// to change states.
type NIC struct {
	cfg     Config
	txPower float64
	state   State
	// seconds[s] and joules[s] accumulate per state.
	seconds [numStates]float64
	joules  [numStates]float64
	// wakeups counts SLEEP exits (each costs SleepExitLatency of idle-power
	// time before the NIC is usable).
	wakeups int64
}

// New builds a NIC for the given configuration; distance must be positive.
func New(cfg Config) (*NIC, error) {
	if cfg.DistanceM <= 0 {
		return nil, fmt.Errorf("nic: distance %v m", cfg.DistanceM)
	}
	return &NIC{cfg: cfg, txPower: TxPowerAt(cfg.DistanceM), state: Idle}, nil
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// TxPower returns the transmit power at the configured distance.
func (n *NIC) TxPower() float64 { return n.txPower }

// State returns the current power state.
func (n *NIC) State() State { return n.state }

// power returns the draw in state s.
func (n *NIC) power(s State) float64 {
	switch s {
	case Transmit:
		return n.txPower
	case Receive:
		return RxPower
	case Idle:
		return IdlePower
	default:
		return SleepPower
	}
}

// spend accounts dt seconds in state s.
func (n *NIC) spend(s State, dt float64) {
	if dt <= 0 {
		return
	}
	n.seconds[s] += dt
	n.joules[s] += dt * n.power(s)
}

// transition moves to state s, paying the SLEEP exit latency (burned at
// idle power, since the radio is ramping) when leaving SLEEP for an active
// state. It returns the latency incurred so the caller can advance its
// clock.
func (n *NIC) transition(s State) float64 {
	var latency float64
	if n.state == Sleep && s != Sleep {
		latency = SleepExitLatency
		n.spend(Idle, latency)
		n.wakeups++
	}
	n.state = s
	return latency
}

// TransmitFor puts the NIC in TRANSMIT for dt seconds, first paying any
// sleep-exit latency; the total elapsed time is returned.
func (n *NIC) TransmitFor(dt float64) float64 {
	lat := n.transition(Transmit)
	n.spend(Transmit, dt)
	return lat + dt
}

// ReceiveFor puts the NIC in RECEIVE for dt seconds, first paying any
// sleep-exit latency; the total elapsed time is returned.
func (n *NIC) ReceiveFor(dt float64) float64 {
	lat := n.transition(Receive)
	n.spend(Receive, dt)
	return lat + dt
}

// IdleFor keeps the NIC in IDLE (carrier sense) for dt seconds.
func (n *NIC) IdleFor(dt float64) float64 {
	lat := n.transition(Idle)
	n.spend(Idle, dt)
	return lat + dt
}

// SleepFor puts the NIC in SLEEP for dt seconds. With DisableSleep set the
// time is spent in IDLE instead (ablation). Entering sleep is free; the
// exit penalty is charged when the NIC next becomes active.
func (n *NIC) SleepFor(dt float64) float64 {
	if n.cfg.DisableSleep {
		return n.IdleFor(dt)
	}
	n.transition(Sleep)
	n.spend(Sleep, dt)
	return dt
}

// Usage summarizes accumulated NIC time and energy.
type Usage struct {
	TxSeconds, RxSeconds, IdleSeconds, SleepSeconds float64
	TxJoules, RxJoules, IdleJoules, SleepJoules     float64
	Wakeups                                         int64
}

// TotalJoules returns the NIC's total energy.
func (u Usage) TotalJoules() float64 {
	return u.TxJoules + u.RxJoules + u.IdleJoules + u.SleepJoules
}

// TotalSeconds returns the NIC's total accounted time.
func (u Usage) TotalSeconds() float64 {
	return u.TxSeconds + u.RxSeconds + u.IdleSeconds + u.SleepSeconds
}

// Usage returns the accumulated accounting.
func (n *NIC) Usage() Usage {
	return Usage{
		TxSeconds:    n.seconds[Transmit],
		RxSeconds:    n.seconds[Receive],
		IdleSeconds:  n.seconds[Idle],
		SleepSeconds: n.seconds[Sleep],
		TxJoules:     n.joules[Transmit],
		RxJoules:     n.joules[Receive],
		IdleJoules:   n.joules[Idle],
		SleepJoules:  n.joules[Sleep],
		Wakeups:      n.wakeups,
	}
}

// Reset clears the accounting and returns the NIC to IDLE.
func (n *NIC) Reset() {
	n.seconds = [numStates]float64{}
	n.joules = [numStates]float64{}
	n.wakeups = 0
	n.state = Idle
}

// SanityCheckTable2 verifies the fitted distance law reproduces Table 2; it
// exists so tests and the config printer can assert the constants.
func SanityCheckTable2() error {
	if math.Abs(TxPowerAt(100)-TxPower100m) > 1e-9 {
		return fmt.Errorf("nic: TxPowerAt(100m) = %v", TxPowerAt(100))
	}
	if math.Abs(TxPowerAt(1000)-TxPower1Km) > 1e-9 {
		return fmt.Errorf("nic: TxPowerAt(1km) = %v", TxPowerAt(1000))
	}
	return nil
}
