package core

import (
	"mobispatial/internal/cpu"
	"mobispatial/internal/energy"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

// Adaptive work partitioning: the paper closes hoping its lessons "provide a
// more systematic way of designing and implementing applications" (§7) —
// this file turns the §4.1 cost model into an online, per-query policy. The
// client estimates the query's work from the dataset's density before
// touching the index, prices every applicable scheme with the platform
// constants it knows (its clock, the Table 2 NIC powers, the link
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
// at the client. NN queries always run locally (the paper's unconditional
// finding).
func (e *Engine) RunAdaptive(q Query, stats *AdaptiveStats) (Answer, error) {
	s := e.chooseScheme(q)
	if stats != nil {
		if s == FullyClient {
			stats.KeptLocal++
		} else {
			stats.Offloaded++
		}
	}
	return e.Run(q, s, DataAtClient)
}

// chooseScheme prices the applicable schemes for q on the simulated platform
// and returns the one scheme.Choose picks for the client's energy.
func (e *Engine) chooseScheme(q Query) Scheme {
	if q.Kind == NNQuery {
		return FullyClient
	}
	n := e.estimateCandidates(q)
	return scheme.Choose(scheme.Energy,
		e.analyticInputs(FullyClient, q, n).FullyLocal(),
		e.analyticInputs(FullyServer, q, n).Partitioned(FullyServer),
		e.analyticInputs(FilterClientRefineServer, q, n).Partitioned(FilterClientRefineServer),
	).Scheme
}

// estimateCandidates predicts the filtering output size from the dataset's
// average density. Clustering makes real counts swing around this, but the
// policy only needs the order of magnitude.
func (e *Engine) estimateCandidates(q Query) float64 {
	if q.Kind == PointQuery {
		return 2 // MBRs containing a point: a couple of incident streets
	}
	w := q.Window.Intersection(e.DS.Extent)
	density := float64(e.DS.Len()) / e.DS.Extent.Area()
	n := w.Area() * density
	if n < 1 {
		n = 1
	}
	return n
}

// analyticInputs characterizes scheme s for a query with n estimated
// candidates in the §4.1 model's terms, on the simulated platform: its
// clock, blocked-core draw, range to the base station and bandwidth. The
// fully-local side is the same whatever s is; the partitioned side is s's
// split of the work and its catalogue message sizes.
func (e *Engine) analyticInputs(s Scheme, q Query, n float64) scheme.AnalyticInputs {
	params := e.Sys.Params()
	costs := cpu.DefaultOpCosts()
	refineOp := ops.OpRefineRange
	if q.Kind == PointQuery {
		refineOp = ops.OpRefinePoint
	}

	// Per-candidate client cycles: filtering share plus refinement with a
	// record-load miss allowance.
	filterPerCand := float64(costs[ops.OpMBRTest].Instr)*2 + 40
	refinePerCand := float64(costs[refineOp].Instr) + 3*100
	const serverIPC = 2.6

	wire := func(payload int) float64 { return float64(proto.Packetize(payload).WireBytes * 8) }

	in := scheme.AnalyticInputs{
		BandwidthBps: params.BandwidthBps,
		CFullyLocal:  n * (filterPerCand + refinePerCand),
		ServerHz:     params.Server.ClockHz,
		Client:       energy.DefaultClientModel().At(params.DistanceM),
	}
	in.Client.ClientHz = params.Client.ClockHz
	in.Client.PBlocked = params.Energy.CPUSleepWatts
	switch s {
	case FullyServer:
		in.PacketTxBits = wire(proto.QueryRequestBytes)
		in.PacketRxBits = wire(proto.IDListBytes(int(n)))
		in.CW2 = in.CFullyLocal / serverIPC
	case FilterClientRefineServer:
		in.CLocal = n * filterPerCand
		in.PacketTxBits = wire(proto.QueryRequestBytes + proto.IDListBytes(int(n)))
		in.PacketRxBits = wire(proto.IDListBytes(int(n)))
		in.CW2 = n * refinePerCand / serverIPC
	}
	return in
}
