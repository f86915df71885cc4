// span.go: lightweight per-query spans. A span decomposes one query into the
// paper's segments — parse → plan → index-walk → serialize → wire →
// server-exec → reply — and carries, per stage, measured wall-clock seconds
// plus modeled Joules and client-clock cycles (the stage prices of
// energy.ClientModel). Finished spans land in a fixed ring buffer with
// 1-in-K sampling, and the slowest span per (scheme, kind) is always
// retained as an exemplar, so /traces shows both the typical and the
// pathological query even at high QPS.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/energy"
)

// DefaultEnergyModel is the client cost model span stages are priced with:
// energy.DefaultClientModel, under the name this side has always called it.
func DefaultEnergyModel() energy.ClientModel { return energy.DefaultClientModel() }

// Stage is one segment of a query's lifecycle.
type Stage uint8

// The span stages, in execution order.
const (
	// StageParse is the server side's time from having a request's first
	// bytes in hand to admitting it: the frame decode, plus any wait for an
	// in-flight slot.
	StageParse Stage = iota
	// StagePlan is the partitioning decision (client side): the §4.1
	// advisor run against measured link conditions.
	StagePlan
	// StageIndexWalk is index filtering + refinement, wherever it runs.
	StageIndexWalk
	// StageSerialize is response/request encoding and the response write.
	StageSerialize
	// StageWire is time attributed to the radio: modeled tx + rx transfer.
	StageWire
	// StageServerExec is the wait for the server's answer (client side) or
	// the admitted execution (server side).
	StageServerExec
	// StageReply is answer materialization at the client.
	StageReply
	// StageFallback is degraded-mode local execution at the client: the
	// breaker is open and the query is answered from the local index
	// instead of the link.
	StageFallback
	// NumStages bounds the stage array.
	NumStages
)

var stageNames = [NumStages]string{
	"parse", "plan", "index-walk", "serialize", "wire", "server-exec", "reply", "fallback",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage(?)"
}

// StageLap is one stage's accounting: measured seconds plus modeled energy
// and client-clock cycles.
type StageLap struct {
	Seconds float64
	Joules  float64
	Cycles  float64
}

// Span is one query's trace. A span is owned by a single goroutine until
// Finish; all methods are nil-safe so disabled observability needs no
// branches at call sites. A span never reads the clock for a stage: the
// instrumented code already holds a reading per stage boundary (it feeds the
// same readings to its histograms and deadlines) and hands the differences to
// Lap.
type Span struct {
	Kind   string
	Scheme string
	Start  time.Time
	End    time.Time
	Err    bool
	Laps   [NumStages]StageLap

	tr *Tracer
}

// Lap adds already-measured seconds to st.
func (s *Span) Lap(st Stage, seconds float64) {
	if s == nil || seconds <= 0 {
		return
	}
	s.Laps[st].Seconds += seconds
}

// Attribute adds modeled energy and cycles to st.
func (s *Span) Attribute(st Stage, joules, cycles float64) {
	if s == nil {
		return
	}
	s.Laps[st].Joules += joules
	s.Laps[st].Cycles += cycles
}

// SetScheme labels the span with its partitioning scheme.
func (s *Span) SetScheme(scheme string) {
	if s != nil {
		s.Scheme = scheme
	}
}

// SetErr marks the span failed.
func (s *Span) SetErr() {
	if s != nil {
		s.Err = true
	}
}

// TotalSeconds returns the span's wall-clock duration (End-Start once
// finished; summed stage laps before that).
func (s *Span) TotalSeconds() float64 {
	if s == nil {
		return 0
	}
	if !s.End.IsZero() {
		return s.End.Sub(s.Start).Seconds()
	}
	var sum float64
	for _, l := range s.Laps {
		sum += l.Seconds
	}
	return sum
}

// TotalJoules returns the span's modeled energy.
func (s *Span) TotalJoules() float64 {
	if s == nil {
		return 0
	}
	var sum float64
	for _, l := range s.Laps {
		sum += l.Joules
	}
	return sum
}

// TotalCycles returns the span's modeled client-clock cycles.
func (s *Span) TotalCycles() float64 {
	if s == nil {
		return 0
	}
	var sum float64
	for _, l := range s.Laps {
		sum += l.Cycles
	}
	return sum
}

// Finish closes the span now and hands it to its tracer for retention.
func (s *Span) Finish() {
	if s != nil {
		s.FinishAt(time.Now())
	}
}

// FinishAt is Finish for a caller that already read the clock at the span's
// last stage boundary.
func (s *Span) FinishAt(end time.Time) {
	if s == nil {
		return
	}
	s.End = end
	if s.tr != nil {
		s.tr.retain(s)
	}
}

// maxExemplars bounds the slowest-span table (schemes × kinds is small; the
// cap only guards against label explosions).
const maxExemplars = 64

// Tracer retains finished spans: a ring buffer of every Kth span plus the
// slowest span per (scheme, kind) exemplar. Both tables own their slots and
// copy a retained span into one, so every finished span goes back to the
// pool and a warm tracer allocates nothing.
type Tracer struct {
	sampleEvery uint64
	capacity    int
	started     atomic.Uint64

	mu sync.Mutex
	// ring grows by append to capacity slots as sampled spans arrive, so a
	// process holds only the slots it has filled.
	ring      []Span
	next      int
	finished  uint64
	exemplars map[exemplarKey]*Span

	pool sync.Pool
}

// exemplarKey names one slowest-span slot. A struct of the two labels, not
// their concatenation: building a string per finished span would allocate
// under the tracer-wide mutex.
type exemplarKey struct{ scheme, kind string }

// NewTracer builds a tracer with the given ring capacity and 1-in-K
// sampling rate (values < 1 default to 256 and 16).
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity < 1 {
		capacity = 256
	}
	if sampleEvery < 1 {
		sampleEvery = 16
	}
	t := &Tracer{
		sampleEvery: uint64(sampleEvery),
		capacity:    capacity,
		exemplars:   make(map[exemplarKey]*Span),
	}
	t.pool.New = func() any { return &Span{} }
	return t
}

// Start opens a span for one query, beginning now. Nil-safe: a nil tracer
// returns a nil span, and every span method on nil is a no-op.
func (t *Tracer) Start(kind string) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(kind, time.Now())
}

// StartAt is Start for a caller that already read the clock when the query
// arrived.
func (t *Tracer) StartAt(kind string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	s := t.pool.Get().(*Span)
	*s = Span{Kind: kind, Start: start, tr: t}
	t.started.Add(1)
	return s
}

// Started returns the number of spans started.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// retain decides what survives of a finished span: a copy in the ring for
// every Kth span, a copy in its (scheme, kind) exemplar slot when it is the
// slowest yet, and the span itself back to the pool. Only the ring's first
// lap (its growth) and a new exemplar key (its slot, at most maxExemplars
// of them) allocate.
func (t *Tracer) retain(s *Span) {
	n := t.started.Load()
	keepRing := t.sampleEvery == 1 || n%t.sampleEvery == 0

	t.mu.Lock()
	t.finished++
	key := exemplarKey{s.Scheme, s.Kind}
	ex := t.exemplars[key]
	if ex == nil && len(t.exemplars) < maxExemplars {
		ex = new(Span)
		t.exemplars[key] = ex
		*ex = *s
	} else if ex != nil && s.TotalSeconds() > ex.TotalSeconds() {
		*ex = *s
	}
	if keepRing {
		if len(t.ring) < t.capacity {
			t.ring = append(t.ring, *s)
		} else {
			t.ring[t.next] = *s
			t.next = (t.next + 1) % t.capacity
		}
	}
	t.mu.Unlock()
	t.pool.Put(s)
}

// StageView is one stage of a span snapshot (zero stages omitted).
type StageView struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Joules  float64 `json:"joules,omitempty"`
	Cycles  float64 `json:"cycles,omitempty"`
}

// SpanView is an immutable copy of a retained span, for /traces.
type SpanView struct {
	Kind        string      `json:"kind"`
	Scheme      string      `json:"scheme,omitempty"`
	StartUnixNs int64       `json:"start_unix_ns"`
	Seconds     float64     `json:"seconds"`
	Joules      float64     `json:"joules"`
	Err         bool        `json:"err,omitempty"`
	Exemplar    bool        `json:"exemplar,omitempty"`
	Stages      []StageView `json:"stages"`
}

func viewOf(s *Span, exemplar bool) SpanView {
	v := SpanView{
		Kind:        s.Kind,
		Scheme:      s.Scheme,
		StartUnixNs: s.Start.UnixNano(),
		Seconds:     s.TotalSeconds(),
		Joules:      s.TotalJoules(),
		Err:         s.Err,
		Exemplar:    exemplar,
	}
	for st, lap := range s.Laps {
		if lap == (StageLap{}) {
			continue
		}
		v.Stages = append(v.Stages, StageView{
			Stage:   Stage(st).String(),
			Seconds: lap.Seconds,
			Joules:  lap.Joules,
			Cycles:  lap.Cycles,
		})
	}
	return v
}

// TraceSnapshot is the tracer's exported state.
type TraceSnapshot struct {
	Started  uint64     `json:"started"`
	Finished uint64     `json:"finished"`
	Sampled  []SpanView `json:"sampled"`
	Slowest  []SpanView `json:"slowest"`
}

// Snapshot copies the retained spans, newest ring entries last.
func (t *Tracer) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{Started: t.started.Load(), Finished: t.finished}
	// Ring in insertion order: oldest surviving entry first.
	for i := 0; i < len(t.ring); i++ {
		idx := i
		if len(t.ring) == t.capacity {
			idx = (t.next + i) % len(t.ring)
		}
		snap.Sampled = append(snap.Sampled, viewOf(&t.ring[idx], false))
	}
	for _, s := range t.exemplars {
		snap.Slowest = append(snap.Slowest, viewOf(s, true))
	}
	return snap
}
