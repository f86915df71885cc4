// Package obs is the observability layer of the networked service: a
// metrics registry (counters, gauges, and internal/stats log-bucketed
// histograms), per-query spans carrying both wall-clock time and modeled
// energy/cycle attribution (span.go, priced by internal/energy's
// ClientModel), and export surfaces — a Prometheus-style text endpoint plus
// JSON traces over HTTP (http.go) and the in-protocol MsgStats snapshot
// served by internal/serve.
//
// The paper's contribution is an accounting exercise: split each query into
// client-compute, NIC, and server segments and attribute Joules and cycles
// to each (§4–§5). This package carries that attribution into the live
// system, so the partitioning planner's predictions can be compared against
// measured outcomes query by query instead of in aggregate.
//
// Hot-path design: instrumented code holds *Counter/*Gauge/*Histogram
// handles resolved once at setup, so the steady-state cost is an atomic add
// (counters, gauges) or a short mutex + O(1) bucket increment (histograms).
// Spans are pooled and sampled; a nil *Span, *Tracer, or *Hub is a no-op on
// every method, so call sites need no "is obs enabled" branches.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/stats"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add accumulates delta (CAS loop — gauges double as float accumulators,
// e.g. total modeled Joules per scheme).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a synchronized wrapper around the internal/stats log-bucketed
// histogram, safe for concurrent Observe from many request goroutines.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Record(x)
	h.mu.Unlock()
}

// HistSummary is the headline view of a histogram.
type HistSummary struct {
	Count                         uint64
	Mean, Min, Max, P50, P95, P99 float64
}

// Summary computes the headline quantiles under the lock.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSummary{
		Count: uint64(h.h.Count()),
		Mean:  h.h.Mean(),
		Min:   h.h.Min(),
		Max:   h.h.Max(),
		P50:   h.h.P(0.50),
		P95:   h.h.P(0.95),
		P99:   h.h.P(0.99),
	}
}

// Registry is a named metric store. Lookups take a read lock; instrumented
// code resolves handles once and uses them lock-free afterwards.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe: a
// nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first use
// with the default 1µs-floor 2%-bucket layout.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{h: stats.NewLatencyHistogram()}
		r.hists[name] = h
	}
	return h
}

// Name composes a metric name with label pairs in Prometheus form:
// Name("queries_total", "scheme", "server-ids") →
// `queries_total{scheme="server-ids"}`. Pairs must come in key, value order.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// CounterValue, GaugeValue, and HistValue are snapshot rows.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge row.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistValue is one histogram row.
type HistValue struct {
	Name string
	HistSummary
}

// Snapshot is a point-in-time copy of the registry, rows sorted by name.
type Snapshot struct {
	Counters []CounterValue
	Gauges   []GaugeValue
	Hists    []HistValue
}

// Counter returns the named counter's value, 0 when the snapshot has no
// such row — a consumer reading a server that does not export the metric
// degrades to "nothing happened" without version negotiation.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value, 0 when the snapshot has no such
// row.
func (s Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// EachGauge calls fn, in row order, for every gauge named base{key="label"}
// — the inverse of Name(base, key, label) for single-label families such as
// the per-shard mutable_* gauges and the per-backend router_backend_healthy.
func (s Snapshot) EachGauge(base, key string, fn func(label string, v float64)) {
	prefix := base + "{" + key + `="`
	for _, g := range s.Gauges {
		rest, ok := strings.CutPrefix(g.Name, prefix)
		if !ok {
			continue
		}
		if label, ok := strings.CutSuffix(rest, `"}`); ok {
			fn(label, g.Value)
		}
	}
}

// Snapshot copies every metric. Histogram summaries are computed per-metric
// under their own locks; the registry lock only guards the maps.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	counters := make([]CounterValue, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, CounterValue{Name: name, Value: c.Value()})
	}
	gauges := make([]GaugeValue, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	hists := make([]*Histogram, 0, len(r.hists))
	histNames := make([]string, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, h)
		histNames = append(histNames, name)
	}
	r.mu.RUnlock()

	snap := Snapshot{Counters: counters, Gauges: gauges}
	snap.Hists = make([]HistValue, len(hists))
	for i, h := range hists {
		snap.Hists[i] = HistValue{Name: histNames[i], HistSummary: h.Summary()}
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}

// Hub bundles the registry and tracer one process shares.
type Hub struct {
	Reg   *Registry
	Trace *Tracer
	start time.Time
}

// NewHub builds a hub with a fresh registry and a default tracer (256-span
// ring, 1-in-16 sampling).
func NewHub() *Hub {
	return &Hub{
		Reg:   NewRegistry(),
		Trace: NewTracer(256, 16),
		start: time.Now(),
	}
}

// Uptime returns the time since the hub was created.
func (h *Hub) Uptime() time.Duration {
	if h == nil {
		return 0
	}
	return time.Since(h.start)
}
