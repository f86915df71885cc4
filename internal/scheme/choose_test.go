package scheme

import (
	"math"
	"testing"
)

// TestChoose is the rule's table, under both objectives: est(p, o) builds an
// estimate from the objective's metric and the other one, so every row reads
// the same whichever metric is being minimized. The incumbent is (100, 100).
func TestChoose(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, o := range []Objective{Performance, Energy} {
		est := func(s Scheme, primary, other float64) Estimate {
			if o == Energy {
				return Estimate{Scheme: s, Joules: primary, Seconds: other}
			}
			return Estimate{Scheme: s, Joules: other, Seconds: primary}
		}
		local := est(FullyClient, 100, 100)
		for _, tc := range []struct {
			name string
			in   []Estimate
			want Scheme
		}{
			{"one candidate", []Estimate{local}, FullyClient},
			{"one candidate, not finite", []Estimate{est(FullyServer, nan, 1)}, FullyServer},

			// The band's edges: outside it the objective's metric decides
			// alone, inside it the other metric does.
			{"0.949, other better", []Estimate{local, est(FullyServer, 94.9, 50)}, FullyServer},
			{"0.949, other worse", []Estimate{local, est(FullyServer, 94.9, 150)}, FullyServer},
			{"0.951, other better", []Estimate{local, est(FullyServer, 95.1, 50)}, FullyServer},
			{"0.951, other worse", []Estimate{local, est(FullyServer, 95.1, 150)}, FullyClient},
			{"1.049, other better", []Estimate{local, est(FullyServer, 104.9, 50)}, FullyServer},
			{"1.049, other worse", []Estimate{local, est(FullyServer, 104.9, 150)}, FullyClient},
			{"1.051, other better", []Estimate{local, est(FullyServer, 105.1, 50)}, FullyClient},
			{"1.051, other worse", []Estimate{local, est(FullyServer, 105.1, 150)}, FullyClient},

			// Ties stay with the earlier candidate, whichever way round.
			{"exact tie", []Estimate{local, est(FullyServer, 100, 100)}, FullyClient},
			{"exact tie, reversed", []Estimate{est(FullyServer, 100, 100), local}, FullyServer},
			{"in band, other tied", []Estimate{local, est(FullyServer, 97, 100)}, FullyClient},

			// The incumbent moves: the third candidate meets the second.
			{"three, last clearly best", []Estimate{local, est(FullyServer, 60, 100), est(FilterClientRefineServer, 50, 500)}, FilterClientRefineServer},
			{"three, last in the second's band and worse", []Estimate{local, est(FullyServer, 60, 100), est(FilterClientRefineServer, 58, 500)}, FullyServer},
			{"three, none beats the first", []Estimate{local, est(FullyServer, 110, 1), est(FilterClientRefineServer, 99, 101)}, FullyClient},

			// An estimate that is not a number never wins, and always loses.
			{"NaN challenger", []Estimate{local, est(FullyServer, nan, 1)}, FullyClient},
			{"NaN other metric on a clear winner", []Estimate{local, est(FullyServer, 1, nan)}, FullyClient},
			{"+Inf challenger", []Estimate{local, est(FullyServer, inf, 1)}, FullyClient},
			{"-Inf challenger", []Estimate{local, est(FullyServer, -inf, 1)}, FullyClient},
			{"NaN incumbent", []Estimate{est(FullyClient, nan, 1), est(FullyServer, 1e9, 1e9)}, FullyServer},
			{"+Inf incumbent", []Estimate{est(FullyClient, inf, 1), est(FullyServer, 1e9, 1e9)}, FullyServer},
			{"NaN incumbent, NaN challenger", []Estimate{est(FullyClient, nan, 1), est(FullyServer, nan, 1)}, FullyClient},
			{"NaN first, then the rule among the rest", []Estimate{est(FullyClient, nan, 1), est(FullyServer, 100, 100), est(FilterClientRefineServer, 104, 50)}, FilterClientRefineServer},
		} {
			if got := Choose(o, tc.in[0], tc.in[1:]...).Scheme; got != tc.want {
				t.Errorf("objective %d, %s: chose %v, want %v", o, tc.name, got, tc.want)
			}
		}
	}

	// The objectives are not interchangeable: a scheme that halves the time
	// for three times the energy is chosen for one and not the other.
	local := Estimate{Scheme: FullyClient, Joules: 1, Seconds: 1}
	fast := Estimate{Scheme: FullyServer, Joules: 3, Seconds: 0.5}
	if got := Choose(Performance, local, fast).Scheme; got != FullyServer {
		t.Errorf("performance: chose %v", got)
	}
	if got := Choose(Energy, local, fast).Scheme; got != FullyClient {
		t.Errorf("energy: chose %v", got)
	}
}
