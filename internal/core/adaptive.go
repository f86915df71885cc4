package core

import (
	"mobispatial/internal/energy"
	"mobispatial/internal/scheme"
)

// Adaptive work partitioning: the paper closes hoping its lessons "provide a
// more systematic way of designing and implementing applications" (§7) —
// this file turns the §4.1 cost model into an online, per-query policy. The
// client estimates the query's work from the index's shape before touching
// it, prices every applicable scheme with the one cycle price list and the
// platform constants it knows (its clock, the Table 2 NIC powers, the link
// bandwidth), and runs the one scheme.Choose picks for energy (the rule is
// that function's comment; DESIGN.md §5 says who else calls it).
//
// The reproduced figures explain what the policy ends up doing: point and
// NN queries always stay local (Figs. 4, 6); range queries offload to the
// server once the estimated refinement work outweighs the round trip
// (Fig. 5); and the candidate-upload hybrid is essentially never chosen at
// 1 km — its transmitter cost is exactly why Fig. 5 shows it losing on
// energy everywhere.

// AdaptiveStats counts the policy's decisions.
type AdaptiveStats struct {
	KeptLocal int64
	Offloaded int64
}

// RunAdaptive executes q under the adaptive policy with the data replicated
// at the client: NN queries always run locally (the paper's unconditional
// finding); any other query runs the applicable scheme scheme.Choose picks
// for the client's energy, each priced on the simulated platform.
func (e *Engine) RunAdaptive(q Query, stats *AdaptiveStats) (Answer, error) {
	s := FullyClient
	if q.Kind != NNQuery {
		offload := e.AnalyticInputs(FullyServer, q)
		s = scheme.Choose(scheme.Energy, offload.FullyLocal(), offload.Partitioned(FullyServer),
			e.AnalyticInputs(FilterClientRefineServer, q).Partitioned(FilterClientRefineServer)).Scheme
	}
	if stats != nil {
		if s == FullyClient {
			stats.KeptLocal++
		} else {
			stats.Offloaded++
		}
	}
	return e.Run(q, s, DataAtClient)
}

// AnalyticInputs characterizes scheme s for q in the §4.1 model's terms on
// the simulated platform: the work estimated from the master tree's shape
// over the dataset's extent, priced by scheme.Prices on the simulated client
// and server, at the platform's bandwidth, range to the base station and
// blocked-core draw. The fully-local side is the same whatever s is.
func (e *Engine) AnalyticInputs(s Scheme, q Query) scheme.AnalyticInputs {
	params := e.Sys.Params()
	shape := scheme.Shape{Items: e.DS.Len(), Extent: e.DS.Extent, RecordBytes: e.DS.RecordBytes}
	if e.Master != nil {
		shape.Height, shape.Fanout = e.Master.Height(), e.Master.Fanout()
	}
	prices, w := scheme.Prices{Client: params.Client, Server: params.Server}, scheme.EstimateWork(q, shape)
	in := prices.Inputs(s, &w, 1)
	in.BandwidthBps = params.BandwidthBps
	in.Client = energy.DefaultClientModel().At(params.DistanceM)
	in.Client.ClientHz = params.Client.ClockHz
	in.Client.PBlocked = params.Energy.CPUSleepWatts
	return in
}
