// Package heat tracks per-shard query heat: a cheap access counter per
// Hilbert range, folded into an exponentially-weighted moving rate by a
// periodic decay pass. The read path cost is one atomic add — cheap enough
// to sample on EVERY query without perturbing the zero-alloc warm path —
// while the EWMA gives the repartitioner a smoothed queries-per-second rate
// per shard that forgets old hotspots at a configurable half-life.
//
// A Tracker is sized once for a fixed slot count. Topology changes (shard
// splits and merges) do not resize a live tracker; the repartitioner builds
// a new one per topology snapshot and seeds the new slots from the old rates
// (a split gives each child half the parent's rate, a merge gives the child
// the sum), so observed heat survives repartitioning instead of restarting
// from cold.
package heat

import (
	"math"
	"sync/atomic"
	"time"
)

// Tracker accumulates access counts for n slots and folds them into EWMA
// rates. Touch is safe for any number of concurrent callers; Decay is meant
// for a single background caller (concurrent Decays would double-count
// elapsed time, not corrupt state).
type Tracker struct {
	// raw[i] counts touches since the last Decay fold.
	raw []atomic.Uint64
	// rate[i] is the EWMA touches-per-second, stored as float64 bits.
	rate []atomic.Uint64
	// halfLife is the EWMA half-life in seconds: after that much idle
	// time a slot's rate halves.
	halfLife float64

	// lastFold is the unix-nano time of the last Fold (0 = never);
	// folding is the single-folder admission gate.
	lastFold atomic.Int64
	folding  atomic.Bool
}

// minFoldSeconds is the smallest elapsed window Fold will decay over:
// sub-50ms folds would spend atomics on statistically empty samples.
const minFoldSeconds = 0.05

// DefaultHalfLife is the rate half-life used when none is given: long
// enough to ride out one burst-free refresh interval, short enough that a
// migrated hotspot fades within a few repartition ticks.
const DefaultHalfLife = 10.0 // seconds

// New returns a tracker for n slots with the given half-life in seconds
// (<= 0 selects DefaultHalfLife).
func New(n int, halfLifeSeconds float64) *Tracker {
	if halfLifeSeconds <= 0 {
		halfLifeSeconds = DefaultHalfLife
	}
	return &Tracker{
		raw:      make([]atomic.Uint64, n),
		rate:     make([]atomic.Uint64, n),
		halfLife: halfLifeSeconds,
	}
}

// Touch records one access to slot i. Out-of-range slots are ignored so
// readers holding a stale topology snapshot stay safe across a swap.
func (t *Tracker) Touch(i int) {
	if t == nil || i < 0 || i >= len(t.raw) {
		return
	}
	t.raw[i].Add(1)
}

// Decay folds the raw counts accumulated over the elapsed seconds into the
// EWMA rates. rate' = rate*decay + (raw/elapsed)*(1-decay), with decay
// derived from the half-life; elapsed <= 0 is a no-op.
func (t *Tracker) Decay(elapsedSeconds float64) {
	if t == nil || elapsedSeconds <= 0 {
		return
	}
	decay := math.Exp2(-elapsedSeconds / t.halfLife)
	for i := range t.raw {
		n := t.raw[i].Swap(0)
		inst := float64(n) / elapsedSeconds
		old := math.Float64frombits(t.rate[i].Load())
		t.rate[i].Store(math.Float64bits(old*decay + inst*(1-decay)))
	}
}

// Fold is the self-clocking Decay: it folds raw counts over the wall-clock
// time elapsed since the previous Fold. Callers sprinkle it wherever rates
// are read (summary builders, the repartition loop) without coordinating —
// the CAS gate admits one folder at a time and the minimum-window check
// makes extra calls free.
func (t *Tracker) Fold() {
	if t == nil || !t.folding.CompareAndSwap(false, true) {
		return
	}
	now := time.Now().UnixNano()
	if last := t.lastFold.Load(); last == 0 {
		t.lastFold.Store(now)
	} else if el := float64(now-last) / float64(time.Second); el >= minFoldSeconds {
		t.Decay(el)
		t.lastFold.Store(now)
	}
	t.folding.Store(false)
}

// Rate returns slot i's EWMA rate in touches per second (0 out of range).
func (t *Tracker) Rate(i int) float64 {
	if t == nil || i < 0 || i >= len(t.rate) {
		return 0
	}
	return math.Float64frombits(t.rate[i].Load())
}

// Seed sets slot i's EWMA rate directly — used when a new tracker inherits
// heat across a topology change.
func (t *Tracker) Seed(i int, rate float64) {
	if t == nil || i < 0 || i >= len(t.rate) {
		return
	}
	t.rate[i].Store(math.Float64bits(rate))
}

// Total returns the sum of all slot rates: the pool-wide query rate the
// repartitioner compares each shard against.
func (t *Tracker) Total() float64 {
	if t == nil {
		return 0
	}
	var sum float64
	for i := range t.rate {
		sum += math.Float64frombits(t.rate[i].Load())
	}
	return sum
}
