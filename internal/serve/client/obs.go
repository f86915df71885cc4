// obs.go: the client half of the observability wiring. The client measures
// what the paper's model predicts — round-trip latency, link estimates, and
// per-scheme execution outcomes — and the planner closes the loop by
// recording its §4.1 predictions against the measured result of every
// executed query (the predicted-vs-actual partitioning error).
package client

import (
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

// clientMetrics holds the transport-level handles, resolved once at New.
// All handles are nil (no-op) when Config.Obs is nil.
type clientMetrics struct {
	rtHist  *obs.Histogram // client_roundtrip_seconds
	rttG    *obs.Gauge     // client_link_rtt_seconds
	bwG     *obs.Gauge     // client_link_bandwidth_bps
	retries *obs.Counter   // client_retries_total
	txBytes *obs.Counter   // client_tx_bytes_total
	rxBytes *obs.Counter   // client_rx_bytes_total
	// batches counts QueryBatch exchanges; batchQueries the queries carried.
	batches      *obs.Counter // client_batches_total
	batchQueries *obs.Counter // client_batch_queries_total
	// Degraded-mode handles: the breaker position (0=closed, 1=open,
	// 2=half-open), its trips and probes, local fallback executions, and the
	// fallback-vs-remote energy attribution.
	breakerState   *obs.Gauge     // client_breaker_state
	breakerTrips   *obs.Counter   // client_breaker_trips_total
	breakerProbes  *obs.Counter   // client_breaker_probes_total
	fallbacks      *obs.Counter   // client_fallback_total
	fallbackHist   *obs.Histogram // client_fallback_seconds
	fallbackJoules *obs.Gauge     // client_fallback_joules_total
	remoteJoules   *obs.Gauge     // client_remote_nic_joules_total
}

func newClientMetrics(h *obs.Hub) clientMetrics {
	var m clientMetrics
	if h == nil {
		return m
	}
	m.rtHist = h.Reg.Histogram("client_roundtrip_seconds")
	m.rttG = h.Reg.Gauge("client_link_rtt_seconds")
	m.bwG = h.Reg.Gauge("client_link_bandwidth_bps")
	m.retries = h.Reg.Counter("client_retries_total")
	m.txBytes = h.Reg.Counter("client_tx_bytes_total")
	m.rxBytes = h.Reg.Counter("client_rx_bytes_total")
	m.batches = h.Reg.Counter("client_batches_total")
	m.batchQueries = h.Reg.Counter("client_batch_queries_total")
	m.breakerState = h.Reg.Gauge("client_breaker_state")
	m.breakerTrips = h.Reg.Counter("client_breaker_trips_total")
	m.breakerProbes = h.Reg.Counter("client_breaker_probes_total")
	m.fallbacks = h.Reg.Counter("client_fallback_total")
	m.fallbackHist = h.Reg.Histogram("client_fallback_seconds")
	m.fallbackJoules = h.Reg.Gauge("client_fallback_joules_total")
	m.remoteJoules = h.Reg.Gauge("client_remote_nic_joules_total")
	return m
}

// plannerMetrics holds the per-scheme handles, indexed by Plan.
type plannerMetrics struct {
	// plans counts executions per scheme; execHist is end-to-end planned
	// execution time (latency); joules accumulates charged client energy.
	plans    [3]*obs.Counter
	execHist [3]*obs.Histogram
	joules   [3]*obs.Gauge
	// cycleRatio and energyRatio are the predicted-vs-actual partitioning
	// error: the model's predicted client cycles (Joules) over the cycles
	// (Joules) the execution it chose was charged. 1.0 = the §4.1 model
	// priced this query perfectly.
	cycleRatio  [3]*obs.Histogram
	energyRatio [3]*obs.Histogram
}

func newPlannerMetrics(h *obs.Hub) plannerMetrics {
	var m plannerMetrics
	if h == nil {
		return m
	}
	for pl := PlanLocal; pl <= PlanServerData; pl++ {
		scheme := pl.String()
		m.plans[pl] = h.Reg.Counter(obs.Name("client_plans_total", "scheme", scheme))
		m.execHist[pl] = h.Reg.Histogram(obs.Name("client_exec_seconds", "scheme", scheme))
		m.joules[pl] = h.Reg.Gauge(obs.Name("client_energy_joules_total", "scheme", scheme))
		m.cycleRatio[pl] = h.Reg.Histogram(obs.Name("client_plan_cycle_ratio", "scheme", scheme))
		m.energyRatio[pl] = h.Reg.Histogram(obs.Name("client_plan_energy_ratio", "scheme", scheme))
	}
	return m
}

// dispatchCycles is an offloaded query's client work outside the protocol
// stack, the request dispatch: what Inputs predicts as CLocal for
// FullyServer.
var dispatchCycles = prices.Inputs(scheme.FullyServer, &scheme.Work{}, 1).CLocal

// attributeExchange laps one completed exchange into sp as roundTrip priced
// it. The radio's stages price the link as measured: the modeled transfer
// of the sent and received frames at bps (StageWire) and the rest of the
// wall time as the wait for the server (StageServerExec). The client's
// processing of the exchange is charged from the price list, as Inputs
// predicts CLocal + CProtocol: the request dispatch plus the protocol stack
// over the frames that moved (StageSerialize; no seconds, it overlaps the
// wall time above).
func (c *Client) attributeExchange(sp *obs.Span, wallSec float64, sentBytes, respBytes int, bps float64) {
	cycles := dispatchCycles + prices.ProtocolCycles(proto.Packetize(sentBytes), proto.Packetize(respBytes))
	j, _ := c.energy.Compute(cycles / c.energy.ClientHz)
	sp.Attribute(obs.StageSerialize, j, cycles)

	txSec, rxSec := c.energy.TxSeconds(sentBytes, bps), c.energy.TxSeconds(respBytes, bps)
	if wire := txSec + rxSec; wire > wallSec {
		// The modeled transfer can exceed the measured wall time when the
		// bandwidth estimate is stale; scale it into the budget.
		scale := wallSec / wire
		txSec *= scale
		rxSec *= scale
	}
	waitSec := wallSec - txSec - rxSec
	sp.Lap(obs.StageWire, txSec+rxSec)
	j, cy := c.energy.Tx(txSec)
	sp.Attribute(obs.StageWire, j, cy)
	j, cy = c.energy.Rx(rxSec)
	sp.Attribute(obs.StageWire, j, cy)
	sp.Lap(obs.StageServerExec, waitSec)
	j, cy = c.energy.Wait(waitSec)
	sp.Attribute(obs.StageServerExec, j, cy)
}
