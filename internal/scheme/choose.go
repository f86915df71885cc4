package scheme

import "math"

// Estimate is what the §4.1 model predicts one scheme costs the client for
// one query: the energy drawn and the time until the answer is held.
type Estimate struct {
	Scheme  Scheme
	Joules  float64
	Seconds float64
}

// finite reports whether both predictions are numbers a comparison can use.
func (e Estimate) finite() bool {
	sum := e.Joules + e.Seconds // NaN or ±Inf if either is
	return !math.IsNaN(sum) && !math.IsInf(sum, 0)
}

// Over returns e's cost as a fraction of base's, per metric (below 1 means e
// is cheaper). A metric base prices at zero has nothing to be a fraction of
// and reads 0, not NaN.
func (e Estimate) Over(base Estimate) (seconds, joules float64) {
	if base.Seconds > 0 {
		seconds = e.Seconds / base.Seconds
	}
	if base.Joules > 0 {
		joules = e.Joules / base.Joules
	}
	return seconds, joules
}

// Objective names the metric a choice minimizes; the other metric settles
// near-ties.
type Objective uint8

// The objectives: the two §4.1 conditions.
const (
	// Performance minimizes the client-observed response time.
	Performance Objective = iota
	// Energy minimizes the client's energy.
	Energy
)

// metrics returns e's cost under o: the metric being minimized, then the
// other one.
func (e Estimate) metrics(o Objective) (primary, other float64) {
	if o == Energy {
		return e.Joules, e.Seconds
	}
	return e.Seconds, e.Joules
}

// band is how far apart two estimates of the objective's metric must be for
// the model to have ranked them: its work estimates are order-of-magnitude.
const band = 0.05

// Choose is the §4.1 partitioning decision — the only one: the simulator's
// adaptive engine, the live planner and the advisor commands all rank their
// estimates here. Candidates are taken in order, the first one the incumbent.
// A challenger replaces the incumbent when it is more than 5 % cheaper on the
// objective's metric, or within 5 % either way and cheaper on the other
// metric; otherwise the incumbent stands, so an exact tie stays with the
// earlier candidate — list the more client-side scheme first and a
// partitioning has to earn the radio. An estimate with a NaN or infinite
// metric never replaces a finite one and always yields to one.
func Choose(o Objective, first Estimate, rest ...Estimate) Estimate {
	best := first
	for _, c := range rest {
		if !c.finite() {
			continue
		}
		if !best.finite() {
			best = c
			continue
		}
		cp, co := c.metrics(o)
		bp, bo := best.metrics(o)
		if cp < bp*(1-band) || (cp < bp*(1+band) && co < bo) {
			best = c
		}
	}
	return best
}

// OffloadFor is the advisors' "offload for" column: the objectives under
// which Choose picked the partitioning — "both", "performance", "energy" or
// "neither".
func OffloadFor(performance, energy bool) string {
	switch {
	case performance && energy:
		return "both"
	case performance:
		return "performance"
	case energy:
		return "energy"
	}
	return "neither"
}
