// planner.go is the live partitioning decision: the §4.1 analytic model
// (scheme.AnalyticInputs) filled from *measured* link conditions instead of
// simulated ones and handed to scheme.Choose, per query, to pick between
// executing fully at the client against a shipped sub-index and offloading to
// the server — the paper's Table 1 schemes as real execution plans, the way
// NeuPart-style systems consult an analytical model at request time.
package client

import (
	"fmt"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

// Plan is a query execution plan.
type Plan uint8

// The plans, from most client-side to most server-side.
const (
	// PlanLocal answers fully at the client from the shipment (Table 1
	// fully-client).
	PlanLocal Plan = iota
	// PlanServerIDs offloads execution and receives ids only, which the
	// client materializes from its shipped records — the hybrid plan:
	// Table 1 fully-server with the data present at the client (§6.1.1).
	PlanServerIDs
	// PlanServerData offloads execution and receives full records (Table 1
	// fully-server, data absent).
	PlanServerData
)

// String implements fmt.Stringer.
func (p Plan) String() string {
	switch p {
	case PlanLocal:
		return "fully-client"
	case PlanServerIDs:
		return "server-ids"
	case PlanServerData:
		return "fully-server"
	}
	return fmt.Sprintf("Plan(%d)", uint8(p))
}

// prices is the one cycle price list the planner's analytic inputs are
// priced with, and the client's processor is charged from: internal/cpu's op
// table on the Table 3 client and the Table 4 server. The client's clock and
// power table are not here: a prediction is priced with the same model its
// charge is (Client.energy).
var prices = scheme.DefaultPrices()

// Planner chooses and executes per-query plans for one client. It holds no
// shipment of its own: what it plans over is the client's local state
// (local.go), so a reply that retires the shipment retires it for the
// planner too.
type Planner struct {
	c       *Client
	batch   int
	metrics plannerMetrics
}

// NewPlanner builds a planner that chooses for performance
// (scheme.Performance). Observability follows the client: with Config.Obs
// set, every Execute records per-scheme metrics, a sampled span, and the
// predicted-vs-actual partitioning error.
func NewPlanner(c *Client) *Planner {
	return &Planner{c: c, metrics: newPlannerMetrics(c.hub)}
}

// SetBatch declares that offloaded queries travel in batches of n (the
// QueryBatch wire message), so the model prices the per-exchange costs —
// frame and packet headers, protocol cycles, the NIC wakeup — at 1/n per
// query. n <= 1 restores unbatched pricing.
func (p *Planner) SetBatch(n int) { p.batch = n }

// Shipment returns the client's installed shipment, nil before
// FetchShipment.
func (p *Planner) Shipment() *Shipment { return p.c.Shipment() }

// FetchShipment pulls a shipment covering window under budgetBytes of client
// memory and installs it as the client's local state (see
// Client.FetchShipment).
func (p *Planner) FetchShipment(window geom.Rect, budgetBytes, recordBytes int) error {
	_, err := p.c.FetchShipment(window, budgetBytes, recordBytes)
	return err
}

// Result is one planned execution's outcome.
type Result struct {
	Plan    Plan
	Records []proto.Record
}

// Plan chooses the execution plan for q. A query the shipment does not cover,
// or covers without proof that it still reflects the server's index, must go
// to the server; a covered query over a fresh shipment is priced under the
// measured link and chosen by scheme.Choose.
func (p *Planner) Plan(q scheme.Query) Plan {
	plan, _, _ := p.plan(p.c.local.Load(), q, time.Now())
	return plan
}

// plan is Plan over one loaded state at time now, plus the estimate it
// chose — the prediction the observability layer scores against the
// measured execution. chosen is false when coverage or freshness forced the
// plan and no prediction exists. Whether the link is up is not asked here:
// the exchange finds out, and degrades by itself.
func (p *Planner) plan(st *localState, q scheme.Query, now time.Time) (plan Plan, predicted scheme.Estimate, chosen bool) {
	if st == nil || !st.ship.Covers(q) || !st.fresh(now, p.c.cfg.maxAge) {
		return PlanServerData, scheme.Estimate{}, false
	}
	in := p.analyticInputs(st.ship, q)
	predicted = scheme.Choose(scheme.Performance, in.FullyLocal(), in.Partitioned(scheme.FullyServer))
	if predicted.Scheme == scheme.FullyServer {
		return PlanServerIDs, predicted, true
	}
	return PlanLocal, predicted, true
}

// Execute plans and runs q, recording the execution as a span and scoring
// the model's prediction against what the execution was charged when obs is
// enabled.
// An execution the link failed and the shipment answered instead comes back
// as PlanLocal; its span reads fallback-local and it is accounted as degraded
// operation (Client.Degraded), not as a scheme the planner chose.
func (p *Planner) Execute(q scheme.Query) (Result, error) {
	c := p.c
	var sp *obs.Span
	if c.hub != nil {
		sp = c.hub.Trace.Start(q.Kind.String())
	}

	start := time.Now()
	st := c.local.Load()
	plan, predicted, chosen := p.plan(st, q, start)
	sp.SetScheme(plan.String())
	planned := time.Now()
	sp.Lap(obs.StagePlan, planned.Sub(start).Seconds())

	res, degraded, end, err := p.runPlan(st, plan, q, sp, planned)
	if degraded {
		res.Plan = PlanLocal
	}
	execSec := end.Sub(start).Seconds()
	if err != nil {
		sp.SetErr()
	}

	// Score and record before Finish: a finished span may be recycled. The
	// seconds are latency; the Joules and cycles are what the span was
	// charged.
	if !degraded {
		joules, cycles := sp.TotalJoules(), sp.TotalCycles()
		m := &p.metrics
		m.plans[res.Plan].Inc()
		m.execHist[res.Plan].Observe(execSec)
		m.joules[res.Plan].Add(joules)
		if chosen && res.Plan == plan && err == nil {
			if cycles > 0 {
				m.cycleRatio[plan].Observe(predicted.Seconds * c.energy.ClientHz / cycles)
			}
			if joules > 0 {
				m.energyRatio[plan].Observe(predicted.Joules / joules)
			}
		}
	}
	sp.Finish()
	return res, err
}

// runPlan executes one chosen plan over the state it was chosen from,
// lapping the span stages; the local walk and the exchanges charge
// themselves. The plan and reply stages are charged nothing: neither the
// §4.1 model nor the simulator prices them. start is the caller's last
// clock reading and end the execution's last: a local answer reads the
// clock once, after it. The bool reports a degraded execution: the wire
// failed and the shipment answered in its place.
func (p *Planner) runPlan(st *localState, plan Plan, q scheme.Query, sp *obs.Span, start time.Time) (Result, bool, time.Time, error) {
	switch plan {
	case PlanLocal:
		recs, end, _, err := p.c.runLocal(st.ship, q, sp, obs.StageIndexWalk, start)
		return Result{Plan: plan, Records: recs}, false, end, err
	case PlanServerIDs:
		ids, _, degraded, err := p.offload(q, proto.ModeIDs, sp)
		if err != nil {
			return Result{Plan: plan}, false, time.Now(), err
		}
		replyStart := time.Now()
		recs, ok := st.ship.records(ids)
		end := time.Now()
		sp.Lap(obs.StageReply, end.Sub(replyStart).Seconds())
		if ok {
			return Result{Plan: plan, Records: recs}, degraded, end, nil
		}
		// The server knows a record the shipment lacks: a write younger
		// than the freshness bound, for which this reply's hint has just
		// retired the shipment. Fetch full records instead.
		sp.SetScheme(PlanServerData.String())
	}
	_, recs, degraded, err := p.offload(q, proto.ModeData, sp)
	return Result{Plan: PlanServerData, Records: recs}, degraded, time.Now(), err
}

// offload sends q to the server in the given mode through Client.ask, which
// degrades to the shipment when the link cannot answer. The exchange prices
// itself into sp where it happens (Client.roundTrip).
func (p *Planner) offload(q scheme.Query, mode proto.Mode, sp *obs.Span) (ids []uint32, recs []proto.Record, degraded bool, err error) {
	m, err := toWire(q, mode)
	if err != nil {
		return nil, nil, false, err
	}
	return p.c.ask(m, sp)
}

// analyticInputs builds the §4.1 model inputs for "local against the
// shipment" versus "offload, ids back" under the measured link: the work
// estimated from the shipment's sub-tree over its coverage, priced by
// scheme.Prices, with the measured RTT folded into the server's wait. Batched
// (SetBatch), B queries share one request/reply exchange, so the per-query
// bits and protocol cycles are the batch totals over B — the way
// MsgBatchQuery amortizes them on the wire.
func (p *Planner) analyticInputs(ship *Shipment, q scheme.Query) scheme.AnalyticInputs {
	t, link := ship.Tree, p.c.Link()
	w := scheme.EstimateWork(q, scheme.Shape{Items: t.Len(), Extent: ship.Coverage,
		Height: t.Height(), Fanout: t.Fanout(), RecordBytes: ship.recordBytes})
	in := prices.Inputs(scheme.FullyServer, &w, p.batch)
	in.BandwidthBps = link.pricingBps()
	in.CW2 += link.RTT.Seconds() * in.ServerHz
	in.Client = p.c.energy
	return in
}
