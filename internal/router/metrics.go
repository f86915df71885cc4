package router

import (
	"time"

	"mobispatial/internal/obs"
)

// routerMetrics holds the obs handles the fan-out paths touch, resolved
// once at New. Every handle is nil (no-op) when Config.Obs is nil — the
// same discipline as internal/serve and internal/shard.
//
// Exported metric names:
//
//	router_backends                 gauge: registered backends
//	router_ranges                   gauge: cluster Hilbert ranges
//	router_fanout                   histogram: backend legs per single query
//	router_leg_seconds              histogram: one backend leg's duration
//	router_leg_errors_total         counter: failed backend legs
//	router_failover_total           counter: rounds of a query or a batch
//	                                that lost a leg and re-covered its
//	                                ranges from replicas
//	router_unroutable_total         counter: queries and batch sub-queries
//	                                failed CodeUnavailable (a needed range
//	                                had no healthy replica)
//	router_nn_backends_visited_total counter: NN legs answered
//	router_nn_backends_pruned_total  counter: backends an answered NN query
//	                                never contacted, because every range
//	                                they hold was either answered by another
//	                                holder or beyond the running bound
//	router_writes_total             counter: write requests routed
//	router_write_legs_total         counter: write legs sent to backends
//	router_write_leg_errors_total   counter: failed write legs
//	router_write_divergence_total   counter: writes some replicas applied
//	                                and others missed — the copies disagree
//	                                until the missing replicas recover
//	router_write_unroutable_total   counter: writes answered CodeUnavailable:
//	                                an upsert no holder of its target range
//	                                applied, or a delete no backend reported
//	                                while some backend did not answer
//	router_batches_total            counter: client batches answered through
//	                                the grouped (one-leg-per-backend) path
//	router_batch_queries_total      counter: sub-queries inside those batches
//	router_batch_legs_total         counter: every backend leg a batch took —
//	                                grouped legs, failover rounds and k-NN
//	                                continuation legs included; legs/batches
//	                                is the locality win over the per-item
//	                                fan-out
//	router_refresh_total            counter: routing-table refreshes swapped
//	router_refresh_errors_total     counter: refresh polls that failed (an
//	                                unreachable backend, a summary of
//	                                another range structure, an
//	                                inconsistent summary set) — the table
//	                                keeps serving its previous snapshot
//	router_ranges_divergent         gauge: ranges whose holders disagreed on
//	                                version or item count at the last
//	                                refresh — replication lag in flight;
//	                                these route unconditionally until the
//	                                copies reconverge
//	router_backend_healthy{backend} gauge: 1 while the backend's breaker
//	                                admits traffic, 0 after a leg failure
//	router_backend_legs_total{backend}       counter: legs per backend —
//	                                the read-spreading evidence
//	router_backend_leg_errors_total{backend} counter: failures per backend
type routerMetrics struct {
	backends *obs.Gauge
	ranges   *obs.Gauge

	fanout     *obs.Histogram
	legHist    *obs.Histogram
	legErrors  *obs.Counter
	failovers  *obs.Counter
	unroutable *obs.Counter
	nnVisited  *obs.Counter
	nnPruned   *obs.Counter

	writes          *obs.Counter
	writeLegs       *obs.Counter
	writeLegErrs    *obs.Counter
	writeDivergence *obs.Counter
	writeUnroutable *obs.Counter

	batches      *obs.Counter
	batchQueries *obs.Counter
	batchLegs    *obs.Counter

	refreshes       *obs.Counter
	refreshErrors   *obs.Counter
	divergentRanges *obs.Gauge

	beHealthy []*obs.Gauge
	beLegs    []*obs.Counter
	beLegErrs []*obs.Counter
}

func newRouterMetrics(h *obs.Hub, backends []string) routerMetrics {
	var m routerMetrics
	if h == nil {
		m.beHealthy = make([]*obs.Gauge, len(backends))
		m.beLegs = make([]*obs.Counter, len(backends))
		m.beLegErrs = make([]*obs.Counter, len(backends))
		return m
	}
	m.backends = h.Reg.Gauge("router_backends")
	m.ranges = h.Reg.Gauge("router_ranges")
	m.fanout = h.Reg.Histogram("router_fanout")
	m.legHist = h.Reg.Histogram("router_leg_seconds")
	m.legErrors = h.Reg.Counter("router_leg_errors_total")
	m.failovers = h.Reg.Counter("router_failover_total")
	m.unroutable = h.Reg.Counter("router_unroutable_total")
	m.nnVisited = h.Reg.Counter("router_nn_backends_visited_total")
	m.nnPruned = h.Reg.Counter("router_nn_backends_pruned_total")
	m.writes = h.Reg.Counter("router_writes_total")
	m.writeLegs = h.Reg.Counter("router_write_legs_total")
	m.writeLegErrs = h.Reg.Counter("router_write_leg_errors_total")
	m.writeDivergence = h.Reg.Counter("router_write_divergence_total")
	m.writeUnroutable = h.Reg.Counter("router_write_unroutable_total")
	m.batches = h.Reg.Counter("router_batches_total")
	m.batchQueries = h.Reg.Counter("router_batch_queries_total")
	m.batchLegs = h.Reg.Counter("router_batch_legs_total")
	m.refreshes = h.Reg.Counter("router_refresh_total")
	m.refreshErrors = h.Reg.Counter("router_refresh_errors_total")
	m.divergentRanges = h.Reg.Gauge("router_ranges_divergent")
	for _, addr := range backends {
		g := h.Reg.Gauge(obs.Name("router_backend_healthy", "backend", addr))
		g.Set(1)
		m.beHealthy = append(m.beHealthy, g)
		m.beLegs = append(m.beLegs, h.Reg.Counter(obs.Name("router_backend_legs_total", "backend", addr)))
		m.beLegErrs = append(m.beLegErrs, h.Reg.Counter(obs.Name("router_backend_leg_errors_total", "backend", addr)))
	}
	return m
}

// observeLeg records one backend leg's outcome and the backend's health
// after it.
func (r *Router) observeLeg(b int, elapsed time.Duration, err error) {
	r.metrics.legHist.Observe(elapsed.Seconds())
	r.metrics.beLegs[b].Inc()
	if err != nil {
		r.metrics.legErrors.Inc()
		r.metrics.beLegErrs[b].Inc()
	}
	r.mirrorHealth(b)
}

// mirrorHealth copies backend b's breaker position into its health gauge.
func (r *Router) mirrorHealth(b int) {
	healthy := 0.0
	if r.BackendHealthy(b) {
		healthy = 1
	}
	r.metrics.beHealthy[b].Set(healthy)
}
