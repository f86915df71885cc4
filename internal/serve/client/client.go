// Package client is the mobile side of the networked service: a client
// library for the internal/serve protocol with connection pooling,
// retry-with-backoff on transient errors, passive link measurement (RTT and
// effective bandwidth) feeding the partitioning planner — the live
// counterpart of the paper's effective-bandwidth parameter B — and
// disconnection tolerance: a circuit breaker (breaker.go) that fails fast
// on a dead link and degrades gracefully to local execution (local.go).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/energy"
	"mobispatial/internal/geom"
	"mobispatial/internal/nic"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

// Config parameterizes a Client.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Conns caps pooled connections (and therefore this client's
	// outstanding requests); defaults to 4.
	Conns int
	// RequestTimeout is the end-to-end time budget of one attempt,
	// defaults to proto.DefaultTimeout. It is also the server's budget for
	// the request, sent on the wire when it is tighter than that default.
	RequestTimeout time.Duration
	// MaxRetries is how many times a transient failure (connection error,
	// server overload, server shutdown) is retried; defaults to 3.
	MaxRetries int
	// Obs enables client-side observability: round-trip histograms, link
	// gauges, and the planner's per-scheme and predicted-vs-actual metrics
	// and spans all land in this hub. Nil disables instrumentation.
	Obs *obs.Hub
	// Breaker configures the circuit breaker (off by default): consecutive
	// transient failures trip it open, open requests fail fast with
	// ErrBreakerOpen, and probe pings re-close it when the link returns.
	Breaker BreakerConfig
	// Shipment, when set, seeds the client's local state (see local.go) the
	// way FetchShipment would install it. With Epoch 0 — a sub-index the
	// caller built itself — it can only ever serve degraded: point, range and
	// NN queries it covers are answered locally whenever the breaker is open
	// or a request exhausts its retries. Nil keeps failures as errors until
	// a shipment is fetched.
	Shipment *Shipment
	// Dial overrides the transport dialer. Tests and cmd/mqload use it to
	// slot an internal/faultlink injector under the client. Nil dials
	// plain TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// maxAge is localMaxAge unless a test set it, to step over or stay
	// inside the freshness bound without sleeping a second.
	maxAge time.Duration
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// backoffBase is the first retry delay, doubling per attempt up to
	// backoffMax (see backoffDelay).
	backoffBase = 2 * time.Millisecond
	backoffMax  = 250 * time.Millisecond
)

func (c *Config) fill() error {
	if c.Addr == "" {
		return fmt.Errorf("client: Config.Addr is required")
	}
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = proto.DefaultTimeout
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.maxAge <= 0 {
		c.maxAge = localMaxAge
	}
	return nil
}

// Client is a pooled connection to one server. It is safe for concurrent
// use; up to Conns requests proceed in parallel, further callers wait for a
// connection.
type Client struct {
	cfg Config
	// sem bounds checked-out connections.
	sem chan struct{}

	mu     sync.Mutex
	idle   []*wireConn
	closed bool

	nextID atomic.Uint32
	link   linkTracker

	// Retries counts transient-failure retries (visible to load tests).
	retries atomic.Uint64
	wire    wireCounters

	// brk gates requests when the link is failing; while it is open the
	// local state answers what it covers. Degraded-mode accounting lives in
	// the atomic counters and CAS-accumulating gauges below.
	brk          *breaker
	fallbacks    atomic.Uint64
	fallbackErrs atomic.Uint64
	fallbackJ    obs.Gauge // modeled Joules of degraded local execution
	remoteNICJ   obs.Gauge // modeled NIC Joules of remote exchanges
	// energy is this device's one cost model: the planner predicts with it
	// and roundTrip, runLocal and the spans measure with it.
	energy         energy.ClientModel
	backoffRng     func() float64 // uniform [0,1) for full-jitter backoff
	backoffRngLock sync.Mutex

	// local is the shipment and the evidence of its freshness (local.go);
	// nil until a shipment is seeded or fetched. writes counts this
	// client's acked writes, so a shipment fetched while one was in flight
	// is installed already retired.
	local  atomic.Pointer[localState]
	writes atomic.Uint64

	hub     *obs.Hub
	metrics clientMetrics
}

// wireConn is one pooled TCP connection. A connection carries one
// outstanding request at a time; pipelining across requests happens by
// holding several connections.
type wireConn struct {
	nc net.Conn
	br *bufio.Reader
}

// New builds a Client. No connection is dialed until the first request.
func New(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	c := &Client{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Conns),
		brk:     newBreaker(cfg.Breaker),
		energy:  energy.DefaultClientModel(),
		hub:     cfg.Obs,
		metrics: newClientMetrics(cfg.Obs),
	}
	c.backoffRng = func() float64 {
		c.backoffRngLock.Lock()
		defer c.backoffRngLock.Unlock()
		return rng.Float64()
	}
	if cfg.Shipment != nil {
		c.install(cfg.Shipment, time.Time{})
	}
	return c, nil
}

// Close closes all pooled connections. In-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, wc := range idle {
		wc.nc.Close()
	}
	return nil
}

// Retries returns the cumulative number of transient-failure retries.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// BreakerState returns the circuit breaker's position (BreakerClosed when
// the breaker is disabled).
func (c *Client) BreakerState() BreakerState {
	state, _, _, _ := c.brk.snapshot()
	return state
}

// DegradedStats is the client's disconnection-tolerance accounting: the
// breaker's position and history plus the local-fallback counters and the
// fallback-vs-remote energy attribution.
type DegradedStats struct {
	Breaker        BreakerState
	Trips          uint64 // closed→open transitions
	Probes         uint64 // half-open probe pings sent
	ProbeFailures  uint64 // probes that re-opened the breaker
	Fallbacks      uint64 // queries answered by the local fallback
	FallbackErrors uint64 // local fallback executions that failed
	// FallbackJoules is the modeled client CPU energy spent answering
	// queries locally; RemoteNICJoules the modeled NIC energy of every
	// remote exchange. Together they price degraded operation the way the
	// paper prices partitioning: compute Joules against radio Joules.
	FallbackJoules  float64
	RemoteNICJoules float64
}

// Degraded returns the degraded-mode accounting snapshot.
func (c *Client) Degraded() DegradedStats {
	state, trips, probes, probeFails := c.brk.snapshot()
	return DegradedStats{
		Breaker:         state,
		Trips:           trips,
		Probes:          probes,
		ProbeFailures:   probeFails,
		Fallbacks:       c.fallbacks.Load(),
		FallbackErrors:  c.fallbackErrs.Load(),
		FallbackJoules:  c.fallbackJ.Value(),
		RemoteNICJoules: c.remoteNICJ.Value(),
	}
}

// wireCounters tracks the physical cost of the client's traffic.
type wireCounters struct {
	framesTx, framesRx, bytesTx, bytesRx, exchanges, queries atomic.Uint64
}

// WireStats is a snapshot of the client's cumulative wire-level counters:
// frames and bytes in each direction, round-trip exchanges (every request
// kind, pings included), and the logical queries those exchanges carried.
// Queries/Exchanges > 1 means batching is amortizing the per-exchange cost —
// the quantity the paper's energy model prices as a NIC wakeup.
type WireStats struct {
	FramesTx, FramesRx uint64
	BytesTx, BytesRx   uint64
	Exchanges          uint64
	Queries            uint64
}

// WireStats returns the client's cumulative wire counters.
func (c *Client) WireStats() WireStats {
	return WireStats{
		FramesTx:  c.wire.framesTx.Load(),
		FramesRx:  c.wire.framesRx.Load(),
		BytesTx:   c.wire.bytesTx.Load(),
		BytesRx:   c.wire.bytesRx.Load(),
		Exchanges: c.wire.exchanges.Load(),
		Queries:   c.wire.queries.Load(),
	}
}

// checkout acquires a pooled connection, dialing a fresh one if the pool has
// capacity but no idle connection.
func (c *Client) checkout() (*wireConn, error) {
	c.sem <- struct{}{}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.sem
		return nil, fmt.Errorf("client: closed")
	}
	var wc *wireConn
	if n := len(c.idle); n > 0 {
		wc = c.idle[n-1]
		c.idle = c.idle[:n-1]
	}
	c.mu.Unlock()
	if wc != nil {
		return wc, nil
	}
	dial := c.cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(c.cfg.Addr, dialTimeout)
	if err != nil {
		<-c.sem
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

// checkin returns a healthy connection to the pool.
func (c *Client) checkin(wc *wireConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		wc.nc.Close()
	} else {
		c.idle = append(c.idle, wc)
		c.mu.Unlock()
	}
	<-c.sem
}

// discard drops a broken connection.
func (c *Client) discard(wc *wireConn) {
	wc.nc.Close()
	<-c.sem
}

// transientCode reports whether a server error invites a retry.
func transientCode(code proto.ErrCode) bool {
	return code == proto.CodeOverload || code == proto.CodeShutdown || code == proto.CodeUnavailable
}

// exchange sends req and returns the matching response, retrying transient
// failures with full-jitter exponential backoff on a fresh connection. With
// the breaker enabled, attempts are gated: an open breaker fails fast with
// ErrBreakerOpen (no wire traffic), and the caller that wins the half-open
// slot pays one probe ping before its request proceeds. A non-zero deadline
// caps the whole retry loop — attempts and backoff sleeps included; a zero
// one gives every attempt RequestTimeout. The router passes the query's
// deadline here so it caps the slowest backend leg end to end instead of
// being re-applied per attempt or per hop. sp is the caller's span (nil when
// it has none): every attempt that completes prices itself into it.
func (c *Client) exchange(req proto.Message, deadline time.Time, sp *obs.Span) (proto.Message, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, deadlineError(lastErr)
		}
		ok, probe := c.brk.allow(time.Now())
		if !ok {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last transient failure: %v)", ErrBreakerOpen, lastErr)
			}
			return nil, ErrBreakerOpen
		}
		if probe {
			c.metrics.breakerProbes.Inc()
			if perr := c.probeLink(); perr != nil {
				c.brk.probeResult(false, time.Now())
				c.observeBreaker()
				return nil, fmt.Errorf("%w (probe failed: %v)", ErrBreakerOpen, perr)
			}
			c.brk.probeResult(true, time.Now())
			c.observeBreaker()
		}
		resp, err := c.roundTrip(req, deadline, sp)
		if err == nil {
			if em, ok := resp.(*proto.ErrorMsg); ok && transientCode(em.Code) {
				lastErr = em
				c.recordFailure()
			} else {
				c.brk.onSuccess()
				return resp, nil
			}
		} else {
			lastErr = err
			c.recordFailure()
		}
		if attempt >= c.cfg.MaxRetries {
			return nil, fmt.Errorf("client: %d attempts failed: %w", attempt+1, lastErr)
		}
		delay := backoffDelay(backoffBase, backoffMax, attempt, c.backoffRng())
		if !deadline.IsZero() && time.Until(deadline) <= delay {
			// The next attempt could not finish inside the deadline anyway;
			// fail now instead of sleeping through it.
			return nil, deadlineError(lastErr)
		}
		c.retries.Add(1)
		c.metrics.retries.Inc()
		time.Sleep(delay)
	}
}

// deadlineError is the exchange-deadline failure, carrying the last
// transient failure when one was seen.
func deadlineError(lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("client: deadline exceeded (last failure: %w)", lastErr)
	}
	return fmt.Errorf("client: deadline exceeded")
}

// recordFailure feeds one transient failure to the breaker and mirrors a
// trip into the metrics.
func (c *Client) recordFailure() {
	if c.brk.onFailure(time.Now()) {
		c.metrics.breakerTrips.Inc()
	}
	c.observeBreaker()
}

// observeBreaker mirrors the breaker position into its gauge.
func (c *Client) observeBreaker() {
	state, _, _, _ := c.brk.snapshot()
	c.metrics.breakerState.Set(float64(state))
}

// probeLink round-trips one empty ping in a single attempt — the half-open
// breaker's link test. It bypasses exchange so a probe can never recurse into
// another probe.
func (c *Client) probeLink() error {
	msg := &proto.PingMsg{ID: c.id()}
	resp, err := c.roundTrip(msg, time.Time{}, nil)
	if err != nil {
		return err
	}
	proto.ReleaseMessage(resp)
	return nil
}

// backoffDelay computes the attempt-th retry sleep: exponential growth from
// base capped at max, with full jitter (uniform in [0, capped)) so a fleet
// of clients released by one server overload does not retry in lockstep —
// synchronized retry herds waste exactly the NIC wakeups the paper's energy
// model charges for. The doubling is computed without a shift so attempt
// counts far past 63 can never overflow into a negative (hot-looping) sleep;
// u is the caller's uniform sample in [0, 1).
func backoffDelay(base, max time.Duration, attempt int, u float64) time.Duration {
	if base <= 0 || max <= 0 {
		return 0
	}
	capped := base
	for i := 0; i < attempt && capped < max; i++ {
		capped *= 2
		if capped <= 0 { // overflow guard: doubling wrapped negative
			capped = max
			break
		}
	}
	if capped > max {
		capped = max
	}
	return time.Duration(u * float64(capped))
}

// roundTrip performs one attempt on one pooled connection and feeds the link
// tracker. A non-zero deadline tightens the attempt's socket deadline below
// the RequestTimeout default.
//
// It is also where an exchange is priced, once: here the frame bytes that
// actually moved, the wall time they took and the link estimate they are
// priced at are all in hand. Those bytes at that estimate are what the NIC
// ledger (Degraded().RemoteNICJoules) is charged for and what sp's stages are
// priced from (attributeExchange); nothing downstream re-derives them from
// catalogue sizes.
func (c *Client) roundTrip(req proto.Message, deadline time.Time, sp *obs.Span) (proto.Message, error) {
	wc, err := c.checkout()
	if err != nil {
		return nil, err
	}
	attemptDeadline := time.Now().Add(c.cfg.RequestTimeout)
	if !deadline.IsZero() && deadline.Before(attemptDeadline) {
		attemptDeadline = deadline
	}
	if err := wc.nc.SetDeadline(attemptDeadline); err != nil {
		// The socket is already torn down (mirrors the server-side
		// SetReadDeadline handling): a request on it could block past its
		// budget, so the connection is discarded, not pooled.
		c.discard(wc)
		return nil, fmt.Errorf("client: arming deadline: %w", err)
	}

	start := time.Now()
	sentBytes, err := proto.WriteMessage(wc.nc, req)
	if err != nil {
		c.discard(wc)
		return nil, fmt.Errorf("client: write: %w", err)
	}
	resp, respBytes, err := c.readResponse(wc, req.RequestID())
	if err != nil {
		c.discard(wc)
		return nil, err
	}
	elapsed := time.Since(start)
	est := c.link.observe(elapsed, sentBytes+respBytes)
	c.checkin(wc)
	c.wire.framesTx.Add(1)
	c.wire.framesRx.Add(1)
	c.wire.bytesTx.Add(uint64(sentBytes))
	c.wire.bytesRx.Add(uint64(respBytes))
	c.wire.exchanges.Add(1)
	bps := est.pricingBps()
	remoteJ := c.energy.NICExchangeJoules(sentBytes, respBytes, 1, bps)
	c.remoteNICJ.Add(remoteJ)
	c.metrics.remoteJoules.Add(remoteJ)
	if sp != nil {
		c.attributeExchange(sp, elapsed.Seconds(), sentBytes, respBytes, bps)
	}
	if c.hub != nil {
		c.metrics.rtHist.Observe(elapsed.Seconds())
		c.metrics.txBytes.Add(uint64(sentBytes))
		c.metrics.rxBytes.Add(uint64(respBytes))
		c.metrics.rttG.Set(est.RTT.Seconds())
		c.metrics.bwG.Set(est.BandwidthBps)
	}
	return resp, nil
}

// readResponse reads the response for id. With one outstanding request per
// connection, the next frame must be ours; anything else is a protocol
// violation and poisons the connection.
func (c *Client) readResponse(wc *wireConn, id uint32) (proto.Message, int, error) {
	resp, n, err := proto.ReadMessage(wc.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, fmt.Errorf("client: connection closed by server: %w", err)
		}
		return nil, 0, fmt.Errorf("client: read: %w", err)
	}
	if resp.RequestID() != id {
		return nil, 0, fmt.Errorf("client: response id %d for request %d", resp.RequestID(), id)
	}
	return resp, n, nil
}

// maxRequestID bounds request ids so that a request's id and a reply's head
// (the id above the stamp bit) each take one uvarint byte. Ids cycle through
// 1..maxRequestID: a connection carries one outstanding request and is
// dropped on any failure, so a reused id can never be matched to a stale
// reply — any cycle of two or more ids would do.
const maxRequestID = 1<<6 - 1

func (c *Client) id() uint32 { return (c.nextID.Add(1)-1)%maxRequestID + 1 }

// microsUntil is the wire's timeout field for a request due by deadline: the
// time left in microseconds, clamped to [1, MaxUint32]; RequestTimeout for a
// zero deadline.
func (c *Client) microsUntil(deadline time.Time) uint32 {
	us := c.cfg.RequestTimeout.Microseconds()
	if !deadline.IsZero() {
		us = max(time.Until(deadline).Microseconds(), 1)
	}
	return uint32(min(us, math.MaxUint32))
}

// call is the one request/reply exchange every client method is built on:
// it stamps req, runs it through exchange under deadline (zero = one
// RequestTimeout per attempt), releases req to its pool, counts the logical
// queries it carried, and returns the reply as the type R the caller
// expects. sp is the span the exchange prices itself into, nil for none. A
// server *ErrorMsg comes back as the error; any other reply type is a
// protocol violation. The reply is the caller's: it copies out what it keeps
// and releases it, or hands its slices on and never does.
func call[R proto.Message](c *Client, req proto.Request, deadline time.Time, queries int, sp *obs.Span) (R, error) {
	req.Stamp(c.id(), c.microsUntil(deadline))
	reqType := req.Type()
	resp, err := c.exchange(req, deadline, sp)
	proto.ReleaseMessage(req)
	c.wire.queries.Add(uint64(queries))
	var none R
	if err != nil {
		return none, err
	}
	switch r := resp.(type) {
	case R:
		return r, nil
	case *proto.ErrorMsg:
		return none, r
	}
	return none, fmt.Errorf("client: unexpected %v reply to %v", resp.Type(), reqType)
}

// query runs one query and decodes the reply for the requested mode: records
// for ModeData, ids otherwise. It owns q (call releases it), so the
// steady-state request path reuses one QueryMsg and one encode buffer per
// connection instead of allocating them. The reply's list is detached and
// handed to the caller, and its shell goes back to the pool, so a read
// allocates its answer and nothing else. sp is the caller's span, nil for
// none.
func (c *Client) query(q *proto.QueryMsg, sp *obs.Span) ([]uint32, []proto.Record, error) {
	q.WantEpoch = c.wantsHint()
	if q.Mode != proto.ModeData {
		r, err := call[*proto.IDListMsg](c, q, time.Time{}, 1, sp)
		if err != nil {
			return nil, nil, err
		}
		c.noteHint(r.Epoch)
		ids := r.IDs
		r.IDs = nil
		proto.ReleaseMessage(r)
		return ids, nil, nil
	}
	r, err := call[*proto.DataListMsg](c, q, time.Time{}, 1, sp)
	if err != nil {
		return nil, nil, err
	}
	c.noteHint(r.Epoch)
	recs := r.Records
	r.Records = nil
	proto.ReleaseMessage(r)
	return nil, recs, nil
}

// localAnswer shapes a locally computed answer like the wire reply it stands
// in for: the records themselves for data mode, their ids otherwise.
func localAnswer(mode proto.Mode, recs []proto.Record) ([]uint32, []proto.Record) {
	if mode == proto.ModeData {
		return nil, recs
	}
	ids := make([]uint32, len(recs))
	for i := range recs {
		ids[i] = recs[i].ID
	}
	return ids, nil
}

// ask runs q on the wire and, when the link cannot answer and the installed
// shipment covers q, at the client instead (degrade). Like query, it owns q.
// sp is the caller's span, nil when it has none; degraded tells a caller
// that planned otherwise where the answer came from.
func (c *Client) ask(q *proto.QueryMsg, sp *obs.Span) (ids []uint32, recs []proto.Record, degraded bool, err error) {
	mode := q.Mode
	cq, canLocal := fromWire(q) // capture before query releases q
	ids, recs, err = c.query(q, sp)
	if err == nil || !canLocal {
		return ids, recs, false, err
	}
	if recs, err = c.degrade(cq, err, sp); err != nil {
		return nil, nil, false, err
	}
	ids, recs = localAnswer(mode, recs)
	return ids, recs, true, nil
}

// Range answers a window query, returning full records (fully-server, data
// absent at client).
func (c *Client) Range(w geom.Rect) ([]proto.Record, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Window = proto.KindRange, proto.ModeData, w
	_, recs, _, err := c.ask(q, nil)
	return recs, err
}

// RangeIDs answers a window query, returning ids only (fully-server, data
// present at client — §6.1.1).
func (c *Client) RangeIDs(w geom.Rect) ([]uint32, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Window = proto.KindRange, proto.ModeIDs, w
	ids, _, _, err := c.ask(q, nil)
	return ids, err
}

// FilterRange returns the server's candidate ids for a window — the server
// half of filter-server/refine-client.
func (c *Client) FilterRange(w geom.Rect) ([]uint32, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Window = proto.KindRange, proto.ModeFilter, w
	ids, _, err := c.query(q, nil)
	return ids, err
}

// Point answers a point query with tolerance eps (0 = server default),
// returning full records.
func (c *Client) Point(p geom.Point, eps float64) ([]proto.Record, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Point, q.Eps = proto.KindPoint, proto.ModeData, p, eps
	_, recs, _, err := c.ask(q, nil)
	return recs, err
}

// PointIDs answers a point query, returning ids only.
func (c *Client) PointIDs(p geom.Point, eps float64) ([]uint32, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Point, q.Eps = proto.KindPoint, proto.ModeIDs, p, eps
	ids, _, _, err := c.ask(q, nil)
	return ids, err
}

// Nearest answers a nearest-neighbor query, returning the nearest record
// (nil when the dataset is empty).
func (c *Client) Nearest(p geom.Point) (*proto.Record, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Point = proto.KindNN, proto.ModeData, p
	_, recs, _, err := c.ask(q, nil)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	return &recs[0], nil
}

// KNearest answers a k-nearest-neighbor query, nearest first.
func (c *Client) KNearest(p geom.Point, k int) ([]proto.Record, error) {
	q, err := toWire(scheme.KNearest(p, k), proto.ModeData)
	if err != nil {
		return nil, err
	}
	_, recs, _, err := c.ask(q, nil)
	return recs, err
}

// BatchResult is one query's answer within a batch: IDs for id/filter modes,
// Records for data mode, or Err when the server failed that query.
type BatchResult struct {
	IDs     []uint32
	Records []proto.Record
	Err     error
}

// QueryBatch answers up to proto.MaxBatchQueries queries in ONE wire
// exchange: one request frame out, one reply frame back, so N queries cost
// one frame-header pair, one syscall pair, and — in the paper's energy
// terms — one NIC wakeup instead of N. The ID and TimeoutMicros fields of
// the given queries are managed by the client; the deadline governs the
// whole batch. Transient failures retry the whole batch; if the exchange
// still fails and the client holds a shipment, each covered query is answered
// locally. Per-query failures (e.g. an over-limit k) come back as per-item
// Errs, not an exchange error.
//
// Ownership rule: the returned IDs and Records are the caller's. Each item's
// decoded slices are handed over and left nil in the pooled BatchReplyMsg,
// which is released before QueryBatch returns, so no later decode writes
// into them and results stay valid across later exchanges.
func (c *Client) QueryBatch(qs []proto.QueryMsg) ([]BatchResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("client: empty batch")
	}
	r, err := c.batchCall(qs, time.Time{}, c.wantsHint())
	if err != nil {
		if out, ok := c.batchDegrade(qs, err); ok {
			return out, nil
		}
		return nil, err
	}
	c.noteHint(r.Epoch)
	out := make([]BatchResult, len(r.Items))
	for i := range r.Items {
		it := &r.Items[i]
		if it.Err != 0 {
			out[i].Err = &proto.ErrorMsg{ID: r.ID, Code: it.Err, Text: it.Text}
			continue
		}
		// Detach the decoded lists, as query does for a single read: the
		// pooled reply keeps nil in their place, never an alias.
		if len(it.IDs) > 0 {
			out[i].IDs, it.IDs = it.IDs, nil
		}
		if len(it.Recs) > 0 {
			out[i].Records, it.Recs = it.Recs, nil
		}
	}
	proto.ReleaseMessage(r)
	return out, nil
}

// batchCall sends qs as one MsgBatchQuery, asking for the epoch stamp when
// wantEpoch is set, and returns the reply, one item per query; the ID and
// TimeoutMicros fields of qs are managed here.
func (c *Client) batchCall(qs []proto.QueryMsg, deadline time.Time, wantEpoch bool) (*proto.BatchReplyMsg, error) {
	if len(qs) > proto.MaxBatchQueries {
		return nil, fmt.Errorf("client: batch of %d exceeds wire limit %d", len(qs), proto.MaxBatchQueries)
	}
	req := proto.AcquireBatchQuery()
	req.WantEpoch = wantEpoch
	req.Queries = append(req.Queries[:0], qs...)
	c.metrics.batches.Inc()
	c.metrics.batchQueries.Add(uint64(len(qs)))
	r, err := call[*proto.BatchReplyMsg](c, req, deadline, len(qs), nil)
	if err == nil && len(r.Items) != len(qs) {
		err = fmt.Errorf("client: batch reply has %d items for %d queries", len(r.Items), len(qs))
		proto.ReleaseMessage(r)
		r = nil
	}
	return r, err
}

// batchDegrade answers a failed batch locally, query by query. ok is false
// when the client holds no shipment or the exchange failure was not
// transient; otherwise every query gets a result (uncovered ones carry the
// link's error per item), matching the batch contract.
func (c *Client) batchDegrade(qs []proto.QueryMsg, cause error) ([]BatchResult, bool) {
	if c.local.Load() == nil || !degradable(cause) {
		return nil, false
	}
	out := make([]BatchResult, len(qs))
	for i := range qs {
		cq, ok := fromWire(&qs[i])
		if !ok {
			out[i].Err = cause
			continue
		}
		recs, err := c.degrade(cq, cause, nil)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].IDs, out[i].Records = localAnswer(qs[i].Mode, recs)
	}
	return out, true
}

// Ping round-trips an echo frame with a payload of the given size and
// returns the elapsed time. Small payloads sample RTT; payloads of several
// MSS sample effective bandwidth.
func (c *Client) Ping(payloadBytes int) (time.Duration, error) {
	start := time.Now()
	r, err := call[*proto.PingMsg](c, &proto.PingMsg{Payload: make([]byte, payloadBytes)}, time.Time{}, 0, nil)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	// The echo payload is not handed to the caller, so the reply can go
	// straight back to the message pool.
	proto.ReleaseMessage(r)
	return elapsed, nil
}

// StatsSnapshot pulls the server's metrics snapshot over the query
// connection — the in-protocol observability surface (no HTTP endpoint
// needed; mqtop and mqload's end-of-run report use it).
func (c *Client) StatsSnapshot() (*proto.StatsMsg, error) {
	return call[*proto.StatsMsg](c, &proto.StatsReqMsg{}, time.Time{}, 0, nil)
}

// Probe primes the link estimate with one small and one large ping.
func (c *Client) Probe() error {
	if _, err := c.Ping(0); err != nil {
		return err
	}
	_, err := c.Ping(256 << 10)
	return err
}

// LinkEstimate is the client's live view of the wireless link — the measured
// counterpart of the paper's effective bandwidth B.
type LinkEstimate struct {
	RTT time.Duration
	// BandwidthBps is the effective application-level bandwidth in
	// bits/second; 0 until a large enough transfer has been observed.
	BandwidthBps float64
	// Samples is the number of round trips observed.
	Samples int
}

// pricingBps is the bandwidth an exchange is priced at: the measured one, or
// the paper's base bandwidth until a measurement exists.
func (e LinkEstimate) pricingBps() float64 {
	if e.BandwidthBps <= 0 {
		return nic.BaseBandwidthBps
	}
	return e.BandwidthBps
}

// Link returns the current link estimate.
func (c *Client) Link() LinkEstimate { return c.link.estimate() }

// SetLink overrides the measured link estimate — the hook the liveserver
// example and the planner tests use to simulate changing channel conditions
// without shaping real traffic.
func (c *Client) SetLink(rtt time.Duration, bandwidthBps float64) {
	c.link.override(rtt, bandwidthBps)
}

// linkTracker keeps EWMA estimates of RTT and bandwidth from passive
// round-trip observations.
type linkTracker struct {
	mu         sync.Mutex
	rttSec     float64
	bwBps      float64
	samples    int
	overridden bool
}

// EWMA weight of a new sample.
const linkAlpha = 0.25

// bwSampleMinBytes is the least transfer worth a bandwidth sample: smaller
// exchanges are RTT-dominated.
const bwSampleMinBytes = 32 << 10

// observe folds one round trip into the estimates and returns them as they
// stand afterwards, under one acquisition of the lock.
func (l *linkTracker) observe(elapsed time.Duration, bytes int) LinkEstimate {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sec := elapsed.Seconds(); sec > 0 && !l.overridden {
		l.samples++
		if bytes < bwSampleMinBytes {
			// Small exchange: an RTT sample.
			l.rttSec = ewma(l.rttSec, sec)
		} else {
			// Large exchange: a bandwidth sample net of the current RTT
			// estimate.
			net := sec - l.rttSec
			if net <= 0 {
				net = sec
			}
			l.bwBps = ewma(l.bwBps, float64(bytes*8)/net)
		}
	}
	return l.estimateLocked()
}

// ewma folds sample x into the running estimate cur; the first sample is
// taken whole.
func ewma(cur, x float64) float64 {
	if cur == 0 {
		return x
	}
	return cur + linkAlpha*(x-cur)
}

func (l *linkTracker) estimate() LinkEstimate {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.estimateLocked()
}

func (l *linkTracker) estimateLocked() LinkEstimate {
	return LinkEstimate{
		RTT:          time.Duration(l.rttSec * float64(time.Second)),
		BandwidthBps: l.bwBps,
		Samples:      l.samples,
	}
}

func (l *linkTracker) override(rtt time.Duration, bwBps float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.overridden = true
	l.rttSec = rtt.Seconds()
	l.bwBps = bwBps
}
