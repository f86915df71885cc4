// Package serve is the real networked counterpart of the paper's simulated
// server: a concurrent TCP service answering point, range, and (k-)NN
// queries — and Fig. 2 index shipments — over the length-prefixed binary
// protocol of internal/proto, against a pool of packed R-trees (one tree, in
// the unsharded server) behind the Executor surface.
//
// Concurrency model:
//
//   - one goroutine per connection reads frames through a small buffered
//     reader (one read syscall per small frame; a payload larger than the
//     buffer bypasses it);
//   - a request runs to completion — admit, execute, encode, flush — on that
//     reader goroutine unless more input is already buffered behind its
//     frame; then it gets a goroutine of its own and the reader moves on. The
//     choice is made per frame from what the reader observes, not configured:
//     a client that waits for each reply (this repository's client, and
//     through it the router's legs) never pays a goroutine hand-off, and a
//     client that writes a burst before reading keeps its concurrency;
//   - what a pipelining client may assume: replies carry the request id and
//     every request is answered exactly once. What it may not: replies are
//     not promised in request order, and a request that arrives alone is
//     served before anything sent after it on the same connection is looked
//     at — a lone slow request delays the frames behind it, which a client
//     that wants them overlapped avoids by writing them together or by
//     using several connections;
//   - admission control bounds the in-flight requests across all
//     connections: when the server is saturated the reader blocks — TCP
//     backpressure — for up to admitTimeout before failing the request with
//     CodeOverload;
//   - each request carries a deadline (client-requested, capped by the
//     server); work that finishes past it is answered with CodeDeadline;
//   - the clock is read once per stage boundary of a request (frame in hand,
//     decoded, admitted when that took a wait, executed, flushed) and those
//     readings feed the span, the histograms, the deadline check and the
//     write deadline, which is moved only when under half its interval is
//     left;
//   - a reader sets no read deadline: an idle connection costs no timer, and
//     Shutdown's poke (a read deadline in the past) is the one way a blocked
//     reader learns to stop;
//   - Shutdown drains in-flight requests, inline ones included, then closes
//     connections.
package serve

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// DefaultPointEps is the point-query incidence tolerance in map units a
// request with Eps 0 is answered under.
const DefaultPointEps = proto.DefaultPointEps

// Executor is the in-process query surface a pool offers: the append-first
// methods shared by *shard.Pool (the frozen engine: S >= 1 packed trees
// walked inline; only bench/ serves it), *mutable.Pool (updatable shards:
// what every mqserve runs) and *router.Router (the cluster). A
// query runs on the goroutine that calls it; the server's admission window
// is the only concurrency control. Every method must be safe for any number
// of concurrent callers, and the append methods must honor the
// zero-allocation contract: write into dst's spare capacity, return the
// extended slice. Workers is the width the server sizes its admission window
// from (MaxInFlight defaults to 4× it). KNearestAppend's bool is always true
// (every pool's access method has k-NN) and the server does not read it; the
// signature stays because bench/ drives pools through it.
//
// The server itself never calls these methods: New wraps a local pool once
// so that every pool — local or distributed — is driven through the engine
// surface, which hands back records beside ids (localPool). The server owns
// no copy of the map and looks up no geometry: a data-mode record or a cache
// entry's segment is the one the pool's walk matched.
type Executor interface {
	Workers() int
	RangeAppend(dst []uint32, w geom.Rect) []uint32
	PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32
	NearestWith(pt geom.Point, sc *shard.Scratch) shard.NearestResult
	KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch) ([]rtree.Neighbor, bool)
}

// engine is the one fallible, deadline-taking query surface the request path
// drives. SearchAppendUntil answers a window or point query — the MBR-filter
// candidates when q.Mode filters, the exact answer otherwise — appending
// ids to dst and, when segs is non-nil, beside each the segment the walk
// matched it at; KNearestAppendUntil's neighbors carry theirs (Seg). Every
// reply and cache entry is built from those (putEntry). A distributed pool
// (internal/router) implements it itself: a leg can find no healthy replica,
// and the request deadline must cap the slowest backend leg rather than
// being re-applied per hop. A local pool never fails and never blocks on a
// peer, so New adapts it (localEngine: the deadline is ignored, the error is
// nil). Returned errors map onto wire codes via their ErrCode() method when
// they carry one (proto.CodeOf).
type engine interface {
	SearchAppendUntil(dst []uint32, segs *[]geom.Segment, q proto.QueryMsg, deadline time.Time) ([]uint32, error)
	KNearestAppendUntil(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch, deadline time.Time) ([]rtree.Neighbor, error)
}

// DeadlineExecutor is the surface a distributed pool brings, and having it
// is what makes a pool distributed: the engine, plus the id-only window
// forms the benchmark ladder times a router through (the server never calls
// them).
type DeadlineExecutor interface {
	engine
	RangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error)
	PointAppendUntil(dst []uint32, pt geom.Point, eps float64, deadline time.Time) ([]uint32, error)
}

// Updatable is the optional live-update surface behind MsgMove and MsgDelete
// (mutable.Pool implements it; the router re-implements it as replicated
// fan-out). ApplyMove is the one upsert: an object's first position and
// every later one. Each Apply call performs one idempotent write and
// returns the owning shard's base epoch at apply time (the ack's staleness
// anchor: the write folds into base epoch+1 or later), whether a previous
// version of the object was visible, and whether the executor owns the
// object's position (false when a replicated write merely cleared a stale
// copy); the reads after the write's return see it. A pool without this
// surface answers update messages with CodeUnsupported.
type Updatable interface {
	ApplyMove(id uint32, seg geom.Segment) (epoch uint64, existed, owned bool, err error)
	ApplyDelete(id uint32) (epoch uint64, existed, owned bool, err error)
}

// LiveSummary is the optional live-summary surface (mutable.Pool implements
// it): SummaryRanges appends the pool's current per-range rows — key span,
// live item count, write version and MBR — and returns the cluster-wide
// range count. A server whose pool has it
// builds every MsgSummary reply from those rows, so a router polling
// summaries sees writes move the per-range (version, MBR, items) instead of
// the frozen registration snapshot. Pools without it keep the precomputed
// static summary.
type LiveSummary interface {
	SummaryRanges(dst []proto.RangeInfo) ([]proto.RangeInfo, int)
}

// BatchExecutor is the optional batch-aware surface a distributed executor
// adds (the Router implements it): one call answers every sub-query of a
// MsgBatchQuery, letting the executor group sub-queries by owning backend
// and issue one wire leg per backend instead of one full fan-out per
// sub-query. items[i] answers qs[i] by its mode, into the slot's (already
// reset) slices: records into Recs for a ModeData or ModeCandidates slot,
// ids into IDs otherwise — or sets Err/Text; slots arriving with Err already
// set were rejected by the server and must be skipped. Records are the ones
// the backends' walks matched, merged by id (k-NN: nearest first).
type BatchExecutor interface {
	RunQueryBatch(qs []proto.QueryMsg, items []proto.BatchItem, deadline time.Time)
}

// capabilities is everything New resolved from Config.Pool, once, so the
// request path never asks the pool what it implements: the optional surfaces
// (nil when the pool lacks one) and whether the pool is distributed.
type capabilities struct {
	// distributed reports the pool brought its own DeadlineExecutor — it
	// fans out over the network instead of walking a local index.
	distributed bool
	// upd serves the live write path (nil answers CodeUnsupported).
	upd Updatable
	// live rebuilds MsgSummary replies from the pool's current state.
	live LiveSummary
	// bx routes whole batches (one leg per owning backend) instead of the
	// per-item loop whenever the result cache is off.
	bx BatchExecutor
	// view is the validity view result-cache entries are checked against.
	// It is resolved even without a cache: it also feeds the epoch hints
	// stamped on replies that ask, which the client's semantic cache validates
	// shipped sub-indexes with. A pool that is its own qcache.Source (a
	// mutable pool's shard versions, the router's cluster version vector)
	// supplies it; any other local pool gets one frozen pseudo-shard; a
	// distributed pool without a Source has none.
	view qcache.Source
}

// localPool is what New requires of a pool that is not distributed: the
// Executor surface, the records walk (SearchAppend: the engine's window
// method without a deadline) and the bounded k-NN walk, which a router's
// k-NN leg prunes with (the running k-th distance in its Eps). Both local
// pools have the bounded walk on one schedule: shard.Pool and mutable.Pool
// skip whole shards the bound rules out, a lone shard included. The bound
// is a hint, never a filter.
type localPool interface {
	Executor
	SearchAppend(dst []uint32, segs *[]geom.Segment, q proto.QueryMsg) []uint32
	KNearestBoundedAppend(dst []rtree.Neighbor, pt geom.Point, k int, bound float64, sc *shard.Scratch) ([]rtree.Neighbor, bool)
}

// localEngine adapts a local pool to the engine: a local index walk never
// blocks on a peer and never fails, so every method ignores the deadline
// and returns a nil error.
type localEngine struct{ localPool }

func (l localEngine) SearchAppendUntil(dst []uint32, segs *[]geom.Segment, q proto.QueryMsg, _ time.Time) ([]uint32, error) {
	return l.SearchAppend(dst, segs, q), nil
}

func (l localEngine) KNearestAppendUntil(dst []rtree.Neighbor, pt geom.Point, k int, sc *shard.Scratch, _ time.Time) ([]rtree.Neighbor, error) {
	dst, _ = l.KNearestAppend(dst, pt, k, sc)
	return dst, nil
}

// codedError is an executor error that names its own wire code.
type codedError struct {
	code proto.ErrCode
	text string
}

func (e *codedError) Error() string          { return e.text }
func (e *codedError) ErrCode() proto.ErrCode { return e.code }

func unsupported(text string) error { return &codedError{proto.CodeUnsupported, text} }

// Config parameterizes a Server.
type Config struct {
	// Pool executes the queries; required. DESIGN.md's pool × capability
	// table lists what each of the three pool kinds adds to Executor. A pool
	// that is not a DeadlineExecutor must have the records walk and the
	// bounded k-NN walk (localPool).
	Pool Executor
	// Master is ignored: every server cuts shipments from Pool. It stays
	// only because bench/ (a pinned path) sets it, and the benchmark
	// re-anchor (ROADMAP item 1a-i) deletes it.
	Master *rtree.Tree
	// MaxInFlight bounds concurrently executing requests across all
	// connections; defaults to 4× the pool width.
	MaxInFlight int
	// Obs enables observability: per-kind execution histograms, sampled
	// spans, and the MsgStatsReq snapshot carry this hub's metrics. Nil
	// disables instrumentation (the snapshot then carries only the core
	// counters, kept in a registry private to the server).
	Obs *obs.Hub
	// Ranges declares the Hilbert key ranges this server holds, reported to
	// routers via MsgSummaryReq. Empty means a monolithic deployment: the
	// server reports one synthetic range covering the whole key space.
	Ranges []proto.RangeInfo
	// NumRanges is the cluster-wide total range count; required when Ranges
	// is set (every backend of one cluster must report the same value).
	NumRanges int
	// Cache enables the server-side query-result cache (internal/qcache);
	// nil disables it. The pool must expose a validity view: a local pool
	// always has one (its own shard versions when mutable, a frozen
	// pseudo-shard otherwise), and a distributed pool (internal/router)
	// qualifies by implementing qcache.Source over its cluster-wide
	// per-range version vector. Setting Cache on a pool with no view is a
	// configuration error New rejects — a cache that cannot be invalidated
	// would serve stale answers silently. See cache.go for the hit path.
	Cache *qcache.Cache

	// testDelay, when set, stalls every query execution — tests use it to
	// fill the admission window and overrun deadlines deterministically.
	testDelay time.Duration
}

const (
	// admitTimeout is how long a request may wait for an in-flight slot
	// before it is refused with CodeOverload.
	admitTimeout = 100 * time.Millisecond
	// maxKNN caps the k of k-NN queries.
	maxKNN = 1024
	// writeTimeout bounds one response write.
	writeTimeout = 10 * time.Second
	// maxShipmentBudget caps a shipment request's byte budget (a larger
	// budget is a protocol error).
	maxShipmentBudget = 64 << 20
)

func (c *Config) fill() error {
	if c.Pool == nil {
		return fmt.Errorf("serve: Config.Pool is required")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * c.Pool.Workers()
	}
	if len(c.Ranges) > 0 && c.NumRanges <= 0 {
		return fmt.Errorf("serve: Config.Ranges set without Config.NumRanges")
	}
	return nil
}

// Stats are cumulative server counters, safe to read at any time. They are
// the serve_*_total series of the server's registry, so servers sharing one
// Config.Obs hub share them.
type Stats struct {
	// Conns is the number of connections accepted.
	Conns uint64
	// Served counts successfully answered requests (pings excluded).
	Served uint64
	// Overloads counts requests refused by admission control.
	Overloads uint64
	// Deadlines counts requests that finished past their deadline.
	Deadlines uint64
	// Errors counts bad requests and internal failures.
	Errors uint64
	// Shipments counts served shipment requests (also included in Served).
	Shipments uint64
	// Batches counts served batch requests (each also counts once in
	// Served); BatchQueries counts the sub-queries they carried.
	Batches uint64
	// BatchQueries counts the queries answered inside batch requests.
	BatchQueries uint64
	// Updates counts served move and delete requests (also included in
	// Served).
	Updates uint64
}

// Server is a networked spatial-query server.
type Server struct {
	cfg   Config
	start time.Time
	// eng is the one query surface the request path drives: the pool's own
	// DeadlineExecutor when it is distributed, localEngine{pool} otherwise.
	eng  engine
	caps capabilities
	// summary is the precomputed MsgSummaryReq reply (ID filled per request;
	// Ranges shared read-only across replies). A pool with a live summary
	// replaces its range table per request.
	summary proto.SummaryMsg
	// qc is the result cache (nil = caching off), validated against
	// caps.view.
	qc *qcache.Cache
	// A cache hit saves roughly one mean miss execution: savedNanos
	// accumulates the missNanos/missCount running mean per hit.
	missNanos  atomic.Int64
	missCount  atomic.Int64
	savedNanos atomic.Int64
	// sem holds one token per in-flight request.
	sem chan struct{}

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
	// shutdown is written under mu (Serve must not register a connection
	// Shutdown's sweep has already passed) and read without it by every
	// reader, once per frame.
	shutdown atomic.Bool

	connWG sync.WaitGroup // one per live connection

	// scratch pools per-request query state (result slices, traversal
	// buffers, response message shells) so a warm request allocates nothing.
	scratch sync.Pool

	metrics serveMetrics
}

// reqScratch is the per-request reusable state. Response messages built from
// it alias its slices, which is safe because conn.write serializes the frame
// before returning — the scratch goes back in the pool only after the
// response bytes are in the connection's write buffer.
type reqScratch struct {
	// item is a single query's answer; its reply aliases the item's slices.
	item    proto.BatchItem
	nbs     []rtree.Neighbor
	psc     shard.Scratch
	idMsg   proto.IDListMsg
	dataMsg proto.DataListMsg
	batch   proto.BatchReplyMsg
	ackMsg  proto.UpdateAckMsg
	// The answer in the making, ids and beside them (records) segments: an
	// engine walk appends here, a cache hit copies its entry out here, a
	// miss fills the entry here before storing it (with NN distances in
	// cdists). The pre/post validity views bracket a fill.
	pre, post qcache.View
	cids      []uint32
	csegs     []geom.Segment
	cdists    []float64
	// recs is where a fill puts its entry in order (order.go) before
	// storing it; order sorts engine answers into the order contract.
	recs  []proto.Record
	order idSorter
}

// Retention caps for pooled scratch, mirroring internal/proto's: a scratch
// that served an outsized answer is dropped instead of pinning the memory.
const (
	maxScratchIDs     = 64 << 10
	maxScratchRecords = 16 << 10
)

func (s *Server) getScratch() *reqScratch {
	return s.scratch.Get().(*reqScratch)
}

func (s *Server) putScratch(sc *reqScratch) {
	if cap(sc.cids) > maxScratchIDs || cap(sc.csegs) > maxScratchIDs || cap(sc.cdists) > maxScratchIDs || cap(sc.recs) > maxScratchIDs || oversized(&sc.item) {
		return
	}
	items := sc.batch.Items[:cap(sc.batch.Items)]
	for i := range items {
		if oversized(&items[i]) {
			return
		}
	}
	s.scratch.Put(sc)
}

func oversized(it *proto.BatchItem) bool {
	return cap(it.IDs) > maxScratchIDs || cap(it.Recs) > maxScratchRecords
}

// resetItem empties one answer slot, keeping its slices' capacity.
func resetItem(it *proto.BatchItem) {
	it.IDs, it.Recs, it.Err, it.Text = it.IDs[:0], it.Recs[:0], 0, ""
}

// serveMetrics holds the obs handles the hot path uses, resolved once at New
// so request goroutines never touch the registry maps. The Stats counters
// always exist; every other handle is nil (no-op) when Config.Obs is nil.
type serveMetrics struct {
	// core is the registry holding the Stats counters: the hub's when there
	// is one (so /metrics sees them), else one private to this server.
	core *obs.Registry
	// The Stats counters — the only copy; Stats() reads them back.
	conns, served, overloads, deadlines, errors, shipments *obs.Counter
	batches, batchQueries, updates                         *obs.Counter
	// inline counts admitted requests served on their connection's reader,
	// spawned those given a goroutine because input was queued behind them.
	inline, spawned *obs.Counter
	// execHist[kind][mode] is the execution-time histogram of one query
	// shape; shipHist covers shipments, admitHist the admission wait,
	// writeHist the response serialization + write.
	execHist  [3][3]*obs.Histogram
	shipHist  *obs.Histogram
	admitHist *obs.Histogram
	writeHist *obs.Histogram
	rxBytes   *obs.Counter
	txBytes   *obs.Counter
	// writes counts physical connection writes, writeFrames the response
	// frames they carried — their ratio is the flush-coalescing factor.
	writes      *obs.Counter
	writeFrames *obs.Counter
	// nnLegHist covers a router's candidates legs (ModeCandidates batch
	// items: its k-NN legs and, on a router-tier cache's filter fills, its
	// window legs), kept apart from execHist so the per-kind client-query
	// histograms stay comparable across deployments.
	nnLegHist *obs.Histogram
	// updateHist[kind] is the execution-time histogram of one update verb
	// (move, delete).
	updateHist [2]*obs.Histogram
	// cacheSavedSec is the server execution time the result cache has
	// saved: each hit is credited one mean miss execution.
	cacheSavedSec *obs.Gauge
}

var kindNames = [3]string{"point", "range", "nn"}

func newServeMetrics(h *obs.Hub) serveMetrics {
	// reg is nil without a hub, and a nil registry hands out no-op handles.
	var reg *obs.Registry
	core := obs.NewRegistry()
	if h != nil {
		reg, core = h.Reg, h.Reg
	}
	m := serveMetrics{core: core}
	m.conns = core.Counter("serve_conns_total")
	m.served = core.Counter("serve_served_total")
	m.overloads = core.Counter("serve_overloads_total")
	m.deadlines = core.Counter("serve_deadlines_total")
	m.errors = core.Counter("serve_errors_total")
	m.shipments = core.Counter("serve_shipments_total")
	m.batches = core.Counter("serve_batches_total")
	m.batchQueries = core.Counter("serve_batch_queries_total")
	m.updates = core.Counter("serve_updates_total")
	m.inline = core.Counter("serve_inline_total")
	m.spawned = core.Counter("serve_spawned_total")
	for k, kindName := range kindNames {
		for mo, mode := range [3]proto.Mode{proto.ModeData, proto.ModeIDs, proto.ModeFilter} {
			m.execHist[k][mo] = reg.Histogram(
				obs.Name("serve_exec_seconds", "kind", kindName, "mode", mode.String()))
		}
	}
	m.shipHist = reg.Histogram("serve_shipment_seconds")
	m.admitHist = reg.Histogram("serve_admit_wait_seconds")
	m.writeHist = reg.Histogram("serve_write_seconds")
	m.rxBytes = reg.Counter("serve_rx_bytes_total")
	m.txBytes = reg.Counter("serve_tx_bytes_total")
	m.writes = reg.Counter("serve_writes_total")
	m.writeFrames = reg.Counter("serve_write_frames_total")
	m.nnLegHist = reg.Histogram("serve_nnleg_seconds")
	for k, kindName := range updateKindNames {
		m.updateHist[k] = reg.Histogram(obs.Name("serve_update_seconds", "kind", kindName))
	}
	m.cacheSavedSec = reg.Gauge("qcache_saved_seconds")
	return m
}

var updateKindNames = [2]string{"move", "delete"}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		conns:   make(map[net.Conn]struct{}),
		metrics: newServeMetrics(cfg.Obs),
	}
	if dx, ok := cfg.Pool.(DeadlineExecutor); ok {
		s.eng, s.caps.distributed = dx, true
	} else if lp, ok := cfg.Pool.(localPool); ok {
		s.eng = localEngine{lp}
	}
	s.caps.upd, _ = cfg.Pool.(Updatable)
	s.caps.live, _ = cfg.Pool.(LiveSummary)
	s.caps.bx, _ = cfg.Pool.(BatchExecutor)
	if s.caps.bx != nil && !s.caps.distributed {
		// Batch routing means fan-out over the network, and a fan-out can
		// fail: without the fallible surface the server would drive the
		// pool's plain Executor methods, which have nowhere to report a
		// failed leg.
		return nil, fmt.Errorf("serve: pool %T routes batches but is not a DeadlineExecutor", cfg.Pool)
	}
	if s.eng == nil {
		return nil, fmt.Errorf("serve: local pool %T has no bounded k-NN walk (KNearestBoundedAppend)", cfg.Pool)
	}
	summary, err := buildSummary(&cfg)
	if err != nil {
		return nil, err
	}
	s.summary = summary
	if src, ok := cfg.Pool.(qcache.Source); ok {
		s.caps.view = src
	} else if !s.caps.distributed {
		rect := nnRegion
		if b := poolBounds(cfg.Pool); !b.IsEmpty() {
			rect = b
		}
		s.caps.view = qcache.Static{Rect: rect}
	}
	if cfg.Cache != nil {
		if s.caps.view == nil {
			return nil, fmt.Errorf(
				"serve: Config.Cache set but pool %T has no validity view (qcache.Source) to invalidate against", cfg.Pool)
		}
		s.qc = cfg.Cache
	}
	s.scratch.New = func() any { return &reqScratch{} }
	return s, nil
}

// poolBounds is the MBR of everything the pool indexes, EmptyRect when the
// pool does not report one.
func poolBounds(p Executor) geom.Rect {
	if b, ok := p.(interface{ Bounds() geom.Rect }); ok {
		return b.Bounds()
	}
	return geom.EmptyRect()
}

// buildSummary precomputes the MsgSummaryReq reply: the Hilbert key ranges
// this server holds. A server without explicit ranges (a monolithic
// deployment) reports one synthetic range covering the whole key space —
// the pool's item count and bounds — so a router can register it like any
// partitioned backend.
func buildSummary(cfg *Config) (proto.SummaryMsg, error) {
	ranges := cfg.Ranges
	numRanges := uint32(cfg.NumRanges)
	if len(ranges) == 0 && cfg.NumRanges <= 0 {
		numRanges = 1
		var items int
		if l, ok := cfg.Pool.(interface{ Len() int }); ok {
			items = l.Len()
		}
		ranges = []proto.RangeInfo{{Index: 0, Items: uint32(min(items, math.MaxUint32)), Lo: 0, Hi: math.MaxUint64, MBR: poolBounds(cfg.Pool)}}
	}
	m := proto.SummaryMsg{NumRanges: numRanges, Ranges: ranges}
	if err := m.Validate(); err != nil {
		return proto.SummaryMsg{}, fmt.Errorf("serve: invalid range summary: %w", err)
	}
	return m, nil
}

// summaryReply builds one MsgSummary response. For a frozen pool it is a
// shallow copy of the precomputed summary with the request id filled in (the
// Ranges slice shared read-only across replies). When the pool has a live
// summary the range table — count included — is the pool's current rows, so
// a router's refresh poll observes writes instead of the registration-time
// snapshot. That allocates a fresh Ranges slice per request, which is fine:
// summaries flow only at registration and on the refresh poll, a few per
// second at most.
func (s *Server) summaryReply(id uint32) *proto.SummaryMsg {
	m := s.summary
	m.ID = id
	if s.caps.live != nil {
		ranges, num := s.caps.live.SummaryRanges(nil)
		m.NumRanges, m.Ranges = uint32(num), ranges
	}
	return &m
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	m := &s.metrics
	return Stats{
		Conns:        m.conns.Value(),
		Served:       m.served.Value(),
		Overloads:    m.overloads.Value(),
		Deadlines:    m.deadlines.Value(),
		Errors:       m.errors.Value(),
		Shipments:    m.shipments.Value(),
		Batches:      m.batches.Value(),
		BatchQueries: m.batchQueries.Value(),
		Updates:      m.updates.Value(),
	}
}

// Serve accepts connections on lis until Shutdown or Close. It returns nil
// after a clean shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("serve: server is shut down")
	}
	if s.lis != nil {
		s.mu.Unlock()
		return fmt.Errorf("serve: Serve called twice")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.inShutdown() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown.Load() {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.metrics.conns.Inc()
		go s.serveConn(nc)
	}
}

// ListenAndServe listens on addr and serves until shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Shutdown gracefully stops the server: no new connections or requests are
// accepted, in-flight requests drain and their responses are written, then
// connections close. It returns when everything has drained or timeout (≤ 0
// means wait forever) has passed.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.shutdown.Store(true)
	lis := s.lis
	// Poke every reader out of its blocking read so it notices shutdown: the
	// only read deadline the server ever sets, so nothing re-arms past it.
	// A connection registered after this sweep sees shutdown in Serve.
	for nc := range s.conns {
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		s.closeAllConns()
		return fmt.Errorf("serve: shutdown timed out after %v", timeout)
	}
}

// Close stops the server immediately, dropping in-flight work.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown.Store(true)
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.closeAllConns()
	s.connWG.Wait()
	return nil
}

func (s *Server) closeAllConns() {
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}

func (s *Server) inShutdown() bool { return s.shutdown.Load() }

// conn is the per-connection state.
type conn struct {
	srv *Server
	nc  net.Conn
	// br buffers the socket for the reader: one read syscall brings in a whole
	// small frame (or a pipelined burst), and what is still buffered behind a
	// decoded frame is how dispatch tells a pipelining client from a lone
	// request. A payload larger than the buffer bypasses it.
	br *bufio.Reader
	// wmu guards the write state below. Responses are encoded into wbuf
	// under wmu and flushed by whichever goroutine finds no flusher active —
	// so concurrent pipelined responses coalesce into one syscall.
	wmu     sync.Mutex
	wbuf    []byte // frames appended, awaiting flush
	wspare  []byte // retained buffer of the last flush, reused for wbuf
	writing bool   // a flusher is draining wbuf
	wclosed bool   // a write failed; the connection is dead
	// writeArmed is the write deadline currently set on nc; only the active
	// flusher reads or moves it.
	writeArmed time.Time
	// pending counts this connection's requests between admission and flush.
	pending sync.WaitGroup
}

// connReadBuf sizes a connection's read buffer: room for a full 16-query
// batch frame, small enough that an idle connection costs next to nothing.
const connReadBuf = 4 << 10

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, br: bufio.NewReaderSize(nc, connReadBuf)}
	defer func() {
		c.pending.Wait() // flush in-flight responses before closing
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.connWG.Done()
	}()

	for {
		// Nothing else sets a read deadline, so the reader blocks until input
		// arrives or Shutdown's poke fails the read: whether the poke lands
		// before the check below or during the read, every read after it
		// fails at once. A frame that has begun is read to its end however
		// long the peer stalls in it.
		if s.inShutdown() {
			return
		}
		if c.br.Buffered() == 0 {
			// Wait for input by peeking, so the frame's clock starts when it
			// arrives, not when the reader began to wait.
			if _, err := c.br.Peek(1); err != nil {
				return // EOF, peer reset, or Shutdown's poke
			}
		}
		began := time.Now()
		msg, n, err := proto.ReadMessage(c.br)
		if err != nil {
			return // EOF, peer reset, a protocol error, or shutdown mid-frame
		}
		arrived := time.Now()
		s.metrics.rxBytes.Add(uint64(n))

		req, ok := msg.(proto.Request)
		if !ok {
			s.metrics.errors.Inc()
			c.write(&proto.ErrorMsg{ID: msg.RequestID(), Code: proto.CodeBadRequest,
				Text: fmt.Sprintf("unexpected %v message", msg.Type())}, arrived)
			proto.ReleaseMessage(msg)
			continue
		}
		if micros, budgeted := req.Timeout(); budgeted {
			c.dispatch(req, began, arrived, micros)
			continue
		}
		// The control requests bypass admission: a ping measures the link,
		// not the server, and stats and summaries must stay available when the
		// server is saturated (observability; a router (re-)registering).
		// write serializes the reply before returning, so releasing the
		// pooled request — a ping's echo is the request itself — is safe.
		c.write(s.execute(req, nil, time.Time{}), arrived)
		proto.ReleaseMessage(req)
	}
}

// dispatch admits req and runs it to completion: on this goroutine — the
// connection's reader — when no input is buffered behind its frame, in a
// goroutine of its own when there is. Queued input is a pipelining client;
// for it the reader goes straight back to the next frame, and answers may
// leave out of order. A lone request, which is every request of a client that
// waits for each reply, skips the goroutine hand-off and its cold stack. The
// began and arrived readings were taken before and after the frame's decode.
func (c *conn) dispatch(req proto.Request, began, arrived time.Time, timeoutMicros uint32) {
	s := c.srv
	timeout := proto.DefaultTimeout
	if t := time.Duration(timeoutMicros) * time.Microsecond; t > 0 && t < timeout {
		timeout = t
	}

	// Admission control. Blocking here stalls this connection's reader —
	// deliberate backpressure — but never past admitTimeout.
	admitted := arrived
	select {
	case s.sem <- struct{}{}:
	default:
		timer := time.NewTimer(min(admitTimeout, timeout))
		select {
		case s.sem <- struct{}{}:
			timer.Stop()
			admitted = time.Now()
		case <-timer.C:
			refused := time.Now()
			s.metrics.overloads.Inc()
			c.write(&proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeOverload,
				Text: "admission queue full"}, refused)
			proto.ReleaseMessage(req)
			return
		}
	}
	s.metrics.admitHist.Observe(admitted.Sub(arrived).Seconds())

	c.pending.Add(1)
	if c.br.Buffered() > 0 {
		s.metrics.spawned.Inc()
		go c.run(req, began, arrived, admitted, timeout)
		return
	}
	s.metrics.inline.Inc()
	c.run(req, began, arrived, admitted, timeout)
}

// run serves one admitted request — execute, encode, flush. It is the whole
// handler, whichever goroutine dispatch put it on. The clock is read once per
// stage boundary (executed, flushed; began, arrived and admitted came with
// the request), and those readings are all the span, the histograms, the
// deadline check and the write deadline get. For a spawned request the wait
// to be scheduled falls between admitted and executed, so it counts as
// execution.
func (c *conn) run(req proto.Request, began, arrived, admitted time.Time, timeout time.Duration) {
	s := c.srv
	defer func() {
		<-s.sem
		c.pending.Done()
	}()
	var sp *obs.Span
	if h := s.cfg.Obs; h != nil {
		sp = h.Trace.StartAt(reqKind(req), began)
	}
	sp.Lap(obs.StageParse, admitted.Sub(began).Seconds())
	sc := s.getScratch()
	deadline := arrived.Add(timeout)
	resp, panicked := s.safeExecute(req, sc, deadline)
	executed := time.Now()
	execSec := executed.Sub(admitted).Seconds()
	s.observeExec(req, execSec)
	sp.Lap(obs.StageIndexWalk, execSec)
	if executed.After(deadline) {
		s.metrics.deadlines.Inc()
		resp = &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeDeadline,
			Text: fmt.Sprintf("request exceeded %v deadline", timeout)}
	}
	if em, ok := resp.(*proto.ErrorMsg); ok {
		if em.Code != proto.CodeDeadline {
			s.metrics.errors.Inc()
		}
		sp.SetErr()
	} else {
		s.metrics.served.Inc()
	}
	// write serializes resp before returning, so the scratch the
	// response aliases can be pooled again immediately after.
	c.write(resp, executed)
	flushed := time.Now()
	writeSec := flushed.Sub(executed).Seconds()
	s.metrics.writeHist.Observe(writeSec)
	sp.Lap(obs.StageSerialize, writeSec)
	if !panicked {
		// A panicking execution may have left the scratch in an
		// inconsistent state (e.g. a half-built pooled slice); drop it
		// rather than recycle it.
		s.putScratch(sc)
	}
	proto.ReleaseMessage(req)
	sp.FinishAt(flushed)
}

// reqKind labels a request for spans and histograms.
func reqKind(req proto.Message) string {
	switch m := req.(type) {
	case *proto.QueryMsg:
		if int(m.Kind) < len(kindNames) {
			return kindNames[m.Kind]
		}
	case *proto.BatchQueryMsg:
		return "batch"
	case *proto.ShipmentReqMsg:
		return "shipment"
	case *proto.DeleteMsg:
		return "delete"
	case *proto.MoveMsg:
		return "move"
	}
	return "other"
}

// observeExec records one execution time into the matching histogram. Batch
// requests are recorded per sub-query inside executeBatch instead, so the
// per-kind histograms stay comparable between batched and single traffic.
func (s *Server) observeExec(req proto.Message, sec float64) {
	switch m := req.(type) {
	case *proto.QueryMsg:
		s.observeExecQuery(m, sec)
	case *proto.ShipmentReqMsg:
		s.metrics.shipHist.Observe(sec)
	case *proto.MoveMsg:
		s.metrics.updateHist[0].Observe(sec)
	case *proto.DeleteMsg:
		s.metrics.updateHist[1].Observe(sec)
	}
}

func (s *Server) observeExecQuery(q *proto.QueryMsg, sec float64) {
	if q.Mode == proto.ModeCandidates {
		s.metrics.nnLegHist.Observe(sec) // a router's leg
		return
	}
	if int(q.Kind) < 3 && int(q.Mode) < 3 {
		s.metrics.execHist[q.Kind][q.Mode].Observe(sec)
	}
}

// maxRetainedWriteBuf caps the flush buffer kept per connection; a burst
// that grew it past this is released back to the heap rather than pinned.
const maxRetainedWriteBuf = 1 << 20

// write enqueues one response frame and flushes the connection's write
// buffer. The frame is serialized under wmu — after write returns, m (and
// any scratch it aliases) may be reused. If another goroutine is already
// flushing, the frame is left for it to pick up: pipelined responses that
// land while a write syscall is in progress all go out in the next write,
// which is how N batched or pipelined responses cost O(1) syscalls. A write
// error closes the connection, which fails the reader's next read. now is the
// caller's latest clock reading, for the write deadline.
func (c *conn) write(m proto.Message, now time.Time) {
	s := c.srv
	c.wmu.Lock()
	if c.wclosed {
		c.wmu.Unlock()
		return
	}
	var err error
	if c.wbuf, err = proto.AppendFrame(c.wbuf, m); err != nil {
		// Server-built replies always validate; this is defensive.
		c.wmu.Unlock()
		s.metrics.errors.Inc()
		return
	}
	s.metrics.writeFrames.Inc()
	if c.writing {
		c.wmu.Unlock()
		return
	}
	c.writing = true
	for first := true; len(c.wbuf) > 0 && !c.wclosed; first = false {
		buf := c.wbuf
		c.wbuf = c.wspare[:0]
		c.wspare = nil
		c.wmu.Unlock()

		// An unarmed write deadline would let a stalled peer pin this
		// writer forever, so every write starts with between half and one
		// writeTimeout left on the socket; the deadline moves only when less
		// than half is. A flusher still draining other goroutines' frames
		// after its own cannot vouch for the caller's reading any more and
		// takes a fresh one. If arming fails the socket is already broken,
		// so skip the write and tear the connection down below.
		if !first {
			now = time.Now()
		}
		var werr error
		if c.writeArmed.Sub(now) < writeTimeout/2 {
			c.writeArmed = now.Add(writeTimeout)
			werr = c.nc.SetWriteDeadline(c.writeArmed)
		}
		if werr == nil {
			var n int
			n, werr = c.nc.Write(buf)
			s.metrics.txBytes.Add(uint64(n))
			s.metrics.writes.Inc()
		}

		c.wmu.Lock()
		if cap(buf) <= maxRetainedWriteBuf {
			c.wspare = buf[:0]
		}
		if werr != nil {
			c.wclosed = true
			c.nc.Close()
		}
	}
	c.writing = false
	c.wmu.Unlock()
}

// statsSnapshot builds the in-protocol stats reply from the registry
// snapshot. Without a hub that is the private registry's core counters, so
// the snapshot is never empty.
func (s *Server) statsSnapshot(id uint32) *proto.StatsMsg {
	snap := s.metrics.core.Snapshot()
	if s.cfg.Obs == nil && s.qc != nil {
		// With obs enabled the registry already carries the qcache_* series;
		// synthesize them here so an obs-less server still reports its cache
		// to mqtop.
		cs := s.qc.Stats()
		snap.Counters = append(snap.Counters,
			obs.CounterValue{Name: "qcache_hits_total", Value: cs.Hits},
			obs.CounterValue{Name: "qcache_misses_total", Value: cs.Misses},
			obs.CounterValue{Name: "qcache_invalidations_total", Value: cs.Invalidations},
			obs.CounterValue{Name: "qcache_stores_total", Value: cs.Stores},
			obs.CounterValue{Name: "qcache_bypass_total", Value: cs.Bypasses},
		)
	}
	return obs.ToStatsMsg(id, uint64(time.Since(s.start).Microseconds()), snap)
}

// safeExecute runs execute with panic containment: a panicking query
// answers CodeInternal instead of crashing the whole server, and reports
// panicked=true so the caller drops (rather than recycles) the scratch the
// panicking execution may have corrupted.
func (s *Server) safeExecute(req proto.Request, sc *reqScratch, deadline time.Time) (resp proto.Message, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			resp = errorReply(req.RequestID(), fmt.Errorf("panic in query execution: %v", r))
		}
	}()
	if s.cfg.testDelay > 0 {
		time.Sleep(s.cfg.testDelay)
	}
	return s.execute(req, sc, deadline), false
}

// errorReply builds the ErrorMsg that answers request id with err.
func errorReply(id uint32, err error) *proto.ErrorMsg {
	code, text := proto.CodeOf(err)
	return &proto.ErrorMsg{ID: id, Code: code, Text: text}
}

func badRequest(format string, args ...any) error {
	return &codedError{proto.CodeBadRequest, fmt.Sprintf(format, args...)}
}

// checkK rejects a k-NN k past the server's limit.
func (s *Server) checkK(k int) error {
	if k > maxKNN {
		return badRequest("k=%d exceeds limit %d", k, maxKNN)
	}
	return nil
}

// execute runs one request and builds its response message: the one place
// that says how each request type is answered. The response may alias sc's
// buffers; it must be serialized (conn.write does this before returning)
// before sc is reused. The control requests use neither sc nor the deadline.
func (s *Server) execute(req proto.Request, sc *reqScratch, deadline time.Time) proto.Message {
	switch m := req.(type) {
	case *proto.PingMsg:
		return m
	case *proto.StatsReqMsg:
		return s.statsSnapshot(m.ID)
	case *proto.SummaryReqMsg:
		return s.summaryReply(m.ID)
	case *proto.QueryMsg:
		return s.executeQuery(m, sc, deadline)
	case *proto.BatchQueryMsg:
		return s.executeBatch(m, sc, deadline)
	case *proto.ShipmentReqMsg:
		return s.executeShipment(m, sc, deadline)
	case *proto.MoveMsg, *proto.DeleteMsg:
		return s.executeUpdate(req, sc)
	}
	return &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeInternal, Text: "unroutable message"}
}

// executeUpdate applies one write through the Updatable surface and builds
// its epoch-carrying ack into the scratch.
func (s *Server) executeUpdate(req proto.Message, sc *reqScratch) proto.Message {
	upd := s.caps.upd
	if upd == nil {
		return errorReply(req.RequestID(), unsupported("this server's pool is not updatable"))
	}
	var (
		epoch          uint64
		existed, owned bool
		err            error
	)
	switch m := req.(type) {
	case *proto.MoveMsg:
		epoch, existed, owned, err = upd.ApplyMove(m.ObjID, m.Seg)
	case *proto.DeleteMsg:
		epoch, existed, owned, err = upd.ApplyDelete(m.ObjID)
	}
	if err != nil {
		return errorReply(req.RequestID(), err)
	}
	s.metrics.updates.Inc()
	sc.ackMsg = proto.UpdateAckMsg{ID: req.RequestID(), Epoch: epoch, Existed: existed, Owned: owned}
	return &sc.ackMsg
}

// search answers a point or range query through the engine into sc.cids —
// and, for a records mode, beside them the segments the walk matched into
// sc.csegs — in the engine's order.
func (s *Server) search(q *proto.QueryMsg, sc *reqScratch, deadline time.Time) error {
	if q.Kind != proto.KindPoint && q.Kind != proto.KindRange {
		return badRequest("unknown query kind")
	}
	var segs *[]geom.Segment
	if sc.csegs = sc.csegs[:0]; q.Mode.Records() {
		segs = &sc.csegs
	}
	var err error
	sc.cids, err = s.eng.SearchAppendUntil(sc.cids[:0], segs, *q, deadline)
	return err
}

// knn is the server's one k-NN call — client queries, router legs and cache
// fills all make it: a local pool's bounded walk, or a distributed pool's
// k-NN, which drops the bound (a router has no bounded surface, and the
// bound is only a pruning hint). bound 0 means none. The answer is appended
// to dst in the rtree.Neighbor.Before order: nearest first, ties by id.
func (s *Server) knn(dst []rtree.Neighbor, pt geom.Point, k int, bound float64, sc *reqScratch, deadline time.Time) ([]rtree.Neighbor, error) {
	if l, ok := s.eng.(localEngine); ok {
		dst, _ = l.KNearestBoundedAppend(dst, pt, k, bound, &sc.psc)
		return dst, nil
	}
	return s.eng.KNearestAppendUntil(dst, pt, k, &sc.psc, deadline)
}

// read answers one query into it, which arrives reset: the one read path the
// single-query and batch paths share. The answer is ids or records by q's
// mode, built by putEntry from what the engine or a cache entry returned; a
// failure leaves the slices empty and its code in it.Err/Text. The request
// deadline rides into the engine so a fanned-out query caps its slowest leg
// (a local engine ignores it).
func (s *Server) read(q *proto.QueryMsg, sc *reqScratch, it *proto.BatchItem, deadline time.Time) {
	var err error
	if q.Kind == proto.KindNN {
		err = s.readNN(q, sc, it, deadline)
	} else {
		err = s.readWindow(q, sc, it, deadline)
	}
	if err != nil {
		resetItem(it)
		it.Err, it.Text = proto.CodeOf(err)
	}
}

// readWindow is read's point and range branch: the refined cache entry when
// the cache is on and the query has a key, else the engine's walk, sorted
// (order.go). Either way the ids are ascending.
func (s *Server) readWindow(q *proto.QueryMsg, sc *reqScratch, it *proto.BatchItem, deadline time.Time) error {
	if s.qc != nil {
		ids, segs, handled, err := s.runQueryCached(q, sc, deadline)
		if err != nil {
			return err
		}
		if handled {
			putEntry(it, q.Mode, ids, segs, nil)
			return nil
		}
	}
	if err := s.search(q, sc, deadline); err != nil {
		return err
	}
	putEntry(it, q.Mode, sc.cids, sc.csegs, &sc.order)
	return nil
}

// readNN is read's k-NN branch, a router's leg included: a ModeCandidates
// item, whose Eps is the router's running k-th distance (0 = none yet). An
// unbounded k-NN refines from its cell's cache entry when the cache is on
// and has one; anything else makes the one engine call.
func (s *Server) readNN(q *proto.QueryMsg, sc *reqScratch, it *proto.BatchItem, deadline time.Time) error {
	k := max(int(q.K), 1)
	if err := s.checkK(k); err != nil {
		return err
	}
	var bound float64 // a client query's Eps means nothing to a k-NN
	if q.Mode == proto.ModeCandidates {
		bound = q.Eps
	}
	if s.qc != nil {
		// Only unbounded k-NN are cacheable: the router's running bound is
		// not part of the key space, and a bounded answer is a truncation no
		// later query could safely refine from.
		if key, cell, ok := qcache.NNCellKey(q.Point, k, s.qc.CellSize()); !ok || bound != 0 {
			s.qc.Bypass()
		} else if cached, err := s.lookupOrFill(key, nnRegion, cell, k, sc, deadline); err != nil {
			return err
		} else if cached {
			ids, segs := refineNN(q.Point, cell, k, sc.cids, sc.csegs, sc.cdists)
			putEntry(it, q.Mode, ids, segs, nil)
			return nil
		}
	}
	var err error
	if sc.nbs, err = s.knn(sc.nbs[:0], q.Point, k, bound, sc, deadline); err != nil {
		return err
	}
	sc.cids, sc.csegs = sc.cids[:0], sc.csegs[:0]
	for _, nb := range sc.nbs {
		sc.cids, sc.csegs = append(sc.cids, nb.ID), append(sc.csegs, nb.Seg)
	}
	putEntry(it, q.Mode, sc.cids, sc.csegs, nil)
	return nil
}

// executeQuery answers one query — read into the scratch's item — as an id
// list or a data list aliasing the item's slices.
func (s *Server) executeQuery(q *proto.QueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	if q.Mode == proto.ModeCandidates {
		// A router's records leg is a batch item.
		return errorReply(q.ID, badRequest("candidates mode is answered only inside a batch"))
	}
	it := &sc.item
	resetItem(it)
	s.read(q, sc, it, deadline)
	switch {
	case it.Err != 0:
		return &proto.ErrorMsg{ID: q.ID, Code: it.Err, Text: it.Text}
	case q.Mode == proto.ModeData:
		sc.dataMsg = proto.DataListMsg{ID: q.ID, Epoch: s.stamp(q.WantEpoch), Records: it.Recs}
		return &sc.dataMsg
	}
	sc.idMsg = proto.IDListMsg{ID: q.ID, Epoch: s.stamp(q.WantEpoch), IDs: it.IDs}
	return &sc.idMsg
}

// batchItems returns one reset reply slot per query, reusing the slices of
// the scratch's previous batch so a warm batch of already-seen shape
// allocates nothing.
func batchItems(sc *reqScratch, n int) []proto.BatchItem {
	items := sc.batch.Items[:0]
	for i := 0; i < n; i++ {
		if i < cap(items) {
			items = items[:i+1]
		} else {
			items = append(items, proto.BatchItem{})
		}
		resetItem(&items[i])
	}
	return items
}

// batchReply fills the scratch's reply shell with the answered items.
func (s *Server) batchReply(m *proto.BatchQueryMsg, sc *reqScratch, items []proto.BatchItem) proto.Message {
	sc.batch.ID = m.ID
	sc.batch.Epoch = s.stamp(m.WantEpoch)
	sc.batch.Items = items
	s.metrics.batches.Inc()
	s.metrics.batchQueries.Add(uint64(len(m.Queries)))
	return &sc.batch
}

// executeBatch answers every query of a batch into one reply message.
// Per-item failures (e.g. an over-limit k mid-batch) become per-item errors;
// the rest of the batch still answers.
func (s *Server) executeBatch(m *proto.BatchQueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	if s.caps.bx != nil && s.qc == nil {
		// Batch-aware pool (the router): hand the whole batch over so it
		// issues one leg per owning backend instead of one fan-out per
		// sub-query. With the result cache on, the per-item loop below is
		// kept instead — the cache probes and fills per sub-query, and a
		// hot batch answering mostly from cache beats a grouped fan-out.
		return s.executeBatchGrouped(m, sc, deadline)
	}
	items := batchItems(sc, len(m.Queries))
	for i := range m.Queries {
		q := &m.Queries[i]
		start := time.Now()
		s.read(q, sc, &items[i], deadline)
		s.observeExecQuery(q, time.Since(start).Seconds())
	}
	return s.batchReply(m, sc, items)
}

// executeBatchGrouped is the locality-aware batch path: the pool's
// BatchExecutor answers every sub-query, records included (grouping them by
// owning backend under the hood). Per-item k limits are enforced before the
// handoff; pre-set Err slots are the executor's contract to skip.
func (s *Server) executeBatchGrouped(m *proto.BatchQueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	items := batchItems(sc, len(m.Queries))
	for i := range m.Queries {
		if q := &m.Queries[i]; q.Kind == proto.KindNN {
			if err := s.checkK(int(q.K)); err != nil {
				items[i].Err, items[i].Text = proto.CodeOf(err)
			}
		}
	}
	start := time.Now()
	s.caps.bx.RunQueryBatch(m.Queries, items, deadline)
	var per float64
	if len(m.Queries) > 0 {
		per = time.Since(start).Seconds() / float64(len(m.Queries))
	}
	for i := range m.Queries {
		s.observeExecQuery(&m.Queries[i], per)
	}
	return s.batchReply(m, sc, items)
}

// executeShipment cuts a Fig. 2 shipment from the engine the reads answer
// from: data-mode range reads of the window grown by a doubling margin,
// until a read overflows the budget's capacity or spans the pool, then a
// bisection of the margin over the last read's records. Every record that
// meets the chosen rectangle ships, so that rectangle is the coverage. The
// epoch hint is read before the first read: a write that lands during the
// cut makes the first later reply's hint differ, which retires the shipment.
func (s *Server) executeShipment(m *proto.ShipmentReqMsg, sc *reqScratch, deadline time.Time) proto.Message {
	// The client rebuilds a packed tree at rtree.Config{} over what ships.
	capacity := rtree.Budget{Bytes: int(m.BudgetBytes), RecordBytes: int(m.RecordBytes)}.
		CapacityItems(rtree.DefaultNodeBytes, (rtree.DefaultNodeBytes-rtree.HeaderBytes)/rtree.EntryBytes)
	bounds := poolBounds(s.cfg.Pool)
	switch {
	case int(m.BudgetBytes) > maxShipmentBudget:
		return errorReply(m.ID, badRequest("budget %d exceeds limit %d", m.BudgetBytes, maxShipmentBudget))
	case capacity < 1:
		return errorReply(m.ID, badRequest("budget %d bytes holds no %d-byte record", m.BudgetBytes, m.RecordBytes))
	case bounds.IsEmpty():
		return errorReply(m.ID, unsupported("the index is empty"))
	}
	epoch := s.epochHint()
	base := m.Window
	if base.IsEmpty() { // an empty window centers the shipment on the index
		base = geom.Rect{Min: bounds.Center(), Max: bounds.Center()}
	}
	step := max(bounds.Width(), bounds.Height(), 1) / 1024
	q := proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData}
	lo, d := -1.0, 0.0 // the largest margin read that fit (-1: none), the last read's
	for {
		q.Window = base.Expand(d)
		if err := s.search(&q, sc, deadline); err != nil {
			return errorReply(m.ID, err)
		}
		if len(sc.cids) > capacity {
			break
		}
		if q.Window.ContainsRect(bounds) {
			return s.shipment(m.ID, epoch, bounds, sc)
		}
		lo, d = d, max(2*d, step)
	}
	ship := s.shipment(m.ID, epoch, geom.EmptyRect(), sc)
	meeting := func(w geom.Rect) (n int) {
		for _, r := range ship.Records {
			if r.Seg.IntersectsRect(w) {
				n++
			}
		}
		return n
	}
	if lo >= 0 {
		// Every record that meets a smaller margin's rectangle met the last
		// read's, so the bisection counts in memory.
		for hi, i := d, 0; i < 24; i++ {
			if mid := (lo + hi) / 2; meeting(base.Expand(mid)) <= capacity {
				lo = mid
			} else {
				hi = mid
			}
		}
		// lo's rectangle can be empty (one step went from no record to too
		// many), or over capacity after a write between two reads; the last
		// read then ships as if it were the window.
		cov := base.Expand(lo)
		if n := meeting(cov); n > 0 && n <= capacity {
			ship.Coverage = cov
			ship.Records = slices.DeleteFunc(ship.Records, func(r proto.Record) bool { return !r.Seg.IntersectsRect(cov) })
			return ship
		}
	}
	// The answer itself does not fit: ship the middle of it by id, with no
	// coverage guarantee; the client keeps asking the server.
	if extra := len(ship.Records) - capacity; extra > 0 {
		ship.Records = ship.Records[extra/2 : extra/2+capacity]
	}
	return ship
}

// shipment builds a shipment reply of the last read's records, ascending by
// id, in the scratch.
func (s *Server) shipment(id uint32, epoch uint64, cov geom.Rect, sc *reqScratch) *proto.ShipmentMsg {
	sc.recs = sc.order.appendRecords(sc.recs[:0], sc.cids, sc.csegs)
	s.metrics.shipments.Inc()
	return &proto.ShipmentMsg{ID: id, Epoch: epoch, Coverage: cov, Records: sc.recs}
}
