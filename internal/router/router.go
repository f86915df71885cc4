// Package router is the coordinator of the distributed serving tier: one
// process holding a shard→server assignment table of contiguous Hilbert key
// ranges with R-way replication, fanning each client query out to the
// backends that own the touched ranges and merging their replies.
//
// The router speaks the same framed protocol on both sides. Client-facing,
// it IS a serve.Server: Router implements serve.Executor and
// serve.DeadlineExecutor, so cmd/mqrouter wires it as the server's pool and
// existing clients (mqload, the planner, the soak tests) work unchanged.
// Backend-facing, it drives pooled serve/client connections — inheriting
// their retry, backoff, and per-backend circuit breakers.
//
// Routing metadata comes from the backends themselves at registration: each
// answers MsgSummaryReq with the Hilbert key ranges it holds, per-range item
// counts and MBRs, and its overall bounds. The table derived from the
// summaries drives three decisions:
//
//   - relevance: a range is fanned to only when its MBR can contain a match
//     (window intersection, eps-expanded point containment);
//   - holder choice: a range is read from one of the backends holding it —
//     the one that holds the most of the query's other open ranges, replicas
//     rotating round-robin on ties, backends whose breaker is open skipped;
//   - NN scheduling: ranges are taken best-first by MINDIST of their MBRs,
//     one holder each, carrying the running k-th-neighbor bound so later
//     backends prune whole shards (shard.Pool's KNearestBoundedAppend) and
//     ranges whose MBR cannot beat the bound cost no leg at all; a batch's
//     k-NN sub-query takes its first leg inside the batch's grouped legs.
//
// Failures fail over, not fail: a leg that errors marks its backend failed
// for the query, its ranges are re-covered from surviving replicas, and the
// query completes as long as every touched range keeps one healthy holder.
// Only when a needed range has no healthy replica does the router answer
// CodeUnavailable (transient, retried by clients like overload).
//
// The routing table is a live snapshot, not a registration-time constant.
// The world is mutable (internal/mutable): objects insert and move after the
// backends reported their summaries, so MBRs captured at registration go
// stale — an object written outside its range's registered MBR (or into a
// range that registered empty) would be invisible to range/point routing and
// could be mis-pruned by the NN visit order. Two mechanisms close the gap:
//
//   - refresh: a background loop re-polls backend summaries every
//     RefreshInterval and atomically swaps in a freshly built table
//     (epoch-swap discipline: build aside, swap a pointer, never mutate a
//     table readers may hold);
//   - growth: between refreshes, every write acked through this router
//     widens an overlay rect for its target range immediately, before the
//     write is acknowledged to the client —
//     so read-your-writes holds at the routing layer without waiting for
//     the next poll.
//
// The table, the growth rects and the per-range write counts are published
// together as one immutable snapshot (routing): a query loads it once. The
// range structure — count and key cuts — is fixed at registration; a
// summary that reports another is refused, not applied.
//
// The same plumbing makes the cluster cacheable: Router implements
// qcache.Source — each range is a pseudo-shard whose version is the minimum
// write-version its holders reported plus the count of writes this router
// has routed since that invalidate it — so a serve.Server wrapping a Router
// can run the epoch-invalidated result cache (-qcache) and stamp replies
// with cluster-wide epoch hints for the client semantic cache.
package router

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the shard servers' addresses; the slice index is the
	// backend id everywhere in this package. Required, at least one.
	Backends []string
	// Dataset is the full deterministic dataset the backends partitioned.
	// New reads only its item bounds, which fix the write-routing
	// quantizer, and keeps no reference to it; records come from the
	// backends' walks. Required.
	Dataset *dataset.Dataset
	// ConnsPerBackend caps pooled connections (and outstanding legs) per
	// backend; defaults to 4.
	ConnsPerBackend int
	// LegTimeout is one backend leg's time budget; defaults to 1s. It is
	// deliberately below the serve default 5s query deadline so a failed
	// leg leaves room to fail over within the client's deadline.
	LegTimeout time.Duration
	// RegisterTimeout bounds the registration handshake — backends are
	// polled until they all answer their summary; defaults to 10s.
	RegisterTimeout time.Duration
	// RefreshInterval is the summary re-poll period of the routing-table
	// refresh loop; defaults to 250ms. Negative disables refresh (the
	// table then stays frozen at registration, softened only by this
	// router's own write growth — appropriate for read-only clusters and
	// allocation-sensitive benchmarks).
	RefreshInterval time.Duration
	// Breaker is the per-backend circuit breaker; enabled by default with a
	// threshold of 3 failures and a 500ms probe interval.
	Breaker client.BreakerConfig
	// Obs receives the router metrics; nil disables them.
	Obs *obs.Hub
	// Dial overrides the backend transport (tests slot faultlink here).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("router: Config.Backends is required")
	}
	if c.Dataset == nil {
		return fmt.Errorf("router: Config.Dataset is required")
	}
	if c.ConnsPerBackend <= 0 {
		c.ConnsPerBackend = 4
	}
	if c.LegTimeout <= 0 {
		c.LegTimeout = time.Second
	}
	if c.RegisterTimeout <= 0 {
		c.RegisterTimeout = 10 * time.Second
	}
	if c.RefreshInterval == 0 {
		c.RefreshInterval = 250 * time.Millisecond
	}
	if !c.Breaker.Enabled {
		c.Breaker = client.BreakerConfig{
			Enabled:          true,
			FailureThreshold: 3,
			ProbeInterval:    500 * time.Millisecond,
		}
	}
	return nil
}

// Router is the coordinator. It is safe for any number of concurrent
// callers; per-call state lives in a pooled fanScratch.
type Router struct {
	cfg     Config
	clients []*client.Client // one pooled client per backend
	// state is the one snapshot a query routes by (see routing). Readers
	// load it once per call; register, the refresh loop and the write path
	// each publish a complete replacement in a single store under wmu.
	state atomic.Pointer[routing]
	// summaries holds the latest summary per backend — the refresh loop's
	// working set (touched only by register and the refresh goroutine; an
	// unreachable backend keeps its last answer so the rest of the cluster
	// still refreshes).
	summaries []*proto.SummaryMsg
	// wmu serializes the publishers of state, so each builds its
	// replacement from the snapshot it replaces and no update is lost.
	wmu sync.Mutex
	// rr rotates replica choice across queries — the read-spreading
	// counter.
	rr      atomic.Uint64
	scratch sync.Pool // *fanScratch
	metrics routerMetrics

	// wq is the cluster's write-routing quantizer — the exact recipe
	// (shard.WriteKey over shard.BoundsOf of the deterministic item set)
	// the backends partitioned under, so router and backends agree on
	// every object's owning range.
	wq *hilbert.Quantizer
	// all lists every backend id — the legs of every write (write.go).
	all []int32

	stopc     chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// routing is everything a query routes by, published as one immutable
// value: the assignment table built from the latest summaries and the
// freshness plane over it, so a reader never pairs one refresh's table with
// another's growth or write counts.
type routing struct {
	*table
	// grow widens the table's routing predicate with the MBRs of writes
	// routed since its summaries were taken, per range beyond rangeMBR (see
	// eff). Read-your-writes for routing; the refresh loop clears a range's
	// rect once a newer summary provably covers the writes behind it.
	grow []geom.Rect
	// wseq[r] counts writes this router has routed that invalidate range r
	// (write.go) — the cumulative half of the cluster version vector. It
	// never resets (the summary-reported half catches up across refreshes
	// and the sum stays monotone).
	wseq []uint64
}

// newRouting wraps a freshly built table with an empty freshness plane.
func newRouting(t *table) *routing {
	s := &routing{
		table: t,
		grow:  make([]geom.Rect, t.numRanges),
		wseq:  make([]uint64, t.numRanges),
	}
	for rg := range s.grow {
		s.grow[rg] = geom.EmptyRect()
	}
	return s
}

// New dials nothing, registers against every backend (polling until
// RegisterTimeout), builds the assignment table, and returns a ready
// Router.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		metrics: newRouterMetrics(cfg.Obs, cfg.Backends),
		stopc:   make(chan struct{}),
		wq:      shard.QuantizerFor(shard.BoundsOf(cfg.Dataset.Items()), 0),
	}
	r.cfg.Dataset = nil // the quantizer is all the router keeps of the map
	for b := range cfg.Backends {
		r.all = append(r.all, int32(b))
	}
	for _, addr := range cfg.Backends {
		// Backend clients keep retries at 1: the router's own failover is
		// the retry policy, a leg that fails should move to a replica, not
		// hammer the same backend. Obs stays nil — all backend clients
		// would share one metric namespace; the router's own metrics carry
		// the per-backend labels instead.
		cc, err := client.New(client.Config{
			Addr:           addr,
			Conns:          cfg.ConnsPerBackend,
			RequestTimeout: cfg.LegTimeout,
			MaxRetries:     1,
			Breaker:        cfg.Breaker,
			Dial:           cfg.Dial,
		})
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("router: backend %s: %w", addr, err)
		}
		r.clients = append(r.clients, cc)
	}
	if err := r.register(); err != nil {
		r.Close()
		return nil, err
	}
	r.scratch.New = func() any { return &fanScratch{} }
	r.metrics.backends.Set(float64(len(r.clients)))
	r.metrics.ranges.Set(float64(r.snap().numRanges))
	r.probeWG.Add(1)
	go r.probeLoop()
	if cfg.RefreshInterval > 0 {
		r.probeWG.Add(1)
		go r.refreshLoop()
	}
	return r, nil
}

// probeLoop re-admits tripped backends. The cover and the NN visit skip a
// backend whose breaker is open, so no query ever reaches it again — which
// means the breaker's own half-open probe (triggered by traffic) would never
// fire and an outage would eject the backend permanently. This loop is the
// missing traffic: it pings every open-breaker backend each probe interval,
// letting the breaker run its half-open protocol and close when the backend
// is back.
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	interval := r.cfg.Breaker.ProbeInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-tick.C:
		}
		for b, cc := range r.clients {
			if cc.BreakerState() != client.BreakerOpen {
				continue
			}
			// The ping flows through the breaker gate, so it IS the
			// half-open probe; its failure keeps the breaker open, and the
			// breaker is where the outcome is read back from.
			_, _ = cc.Ping(0)
			r.mirrorHealth(b)
		}
	}
}

// register polls every backend for its summary until all have answered or
// RegisterTimeout passes, then builds the assignment table and seeds the
// freshness plane (empty growth, zero write sequences).
func (r *Router) register() error {
	deadline := time.Now().Add(r.cfg.RegisterTimeout)
	summaries := make([]*proto.SummaryMsg, len(r.clients))
	for {
		missing := 0
		var lastErr error
		for i, cc := range r.clients {
			if summaries[i] != nil {
				continue
			}
			sm, err := cc.Summary()
			if err != nil {
				missing++
				lastErr = fmt.Errorf("backend %s: %w", r.cfg.Backends[i], err)
				continue
			}
			summaries[i] = sm
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router: registration timed out, %d backends unreachable: %v", missing, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
	tbl, err := buildTable(summaries)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	r.summaries = summaries
	r.wmu.Lock()
	r.state.Store(newRouting(&tbl))
	r.wmu.Unlock()
	return nil
}

// refreshLoop re-polls backend summaries and swaps the routing snapshot —
// how writes applied by OTHER routers (or directly at a backend) become
// visible to this router's routing predicates, and how the write-growth
// overlay drains back to exact backend-reported MBRs.
func (r *Router) refreshLoop() {
	defer r.probeWG.Done()
	// Jittered sleeps (±20% of the interval) instead of a fixed ticker: a
	// fleet of routers started together against the same backends would
	// otherwise poll summaries in lockstep, hitting every backend with a
	// synchronized burst each period. The jitter decorrelates them; one
	// router's mean refresh period is unchanged.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	timer := time.NewTimer(jitterInterval(rng, r.cfg.RefreshInterval))
	defer timer.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-timer.C:
		}
		r.refreshOnce()
		timer.Reset(jitterInterval(rng, r.cfg.RefreshInterval))
	}
}

// jitterInterval spreads d uniformly over [0.8d, 1.2d].
func jitterInterval(rng *rand.Rand, d time.Duration) time.Duration {
	return d + time.Duration((rng.Float64()-0.5)*0.4*float64(d))
}

// refreshOnce polls one summary round and, if anything answered, publishes
// a snapshot over the rebuilt table. The range structure — count and key
// cuts — is the one registered: backends own their local shard cuts, the
// cluster's ranges are the deployment's and never move under a router, so a
// summary describing another structure is an error like an unreachable
// backend — counted, and that backend keeps its last summary. Correctness of
// the growth clearing: a range's growth rect may be dropped only when the
// new summaries provably cover every write behind it. The snapshot loaded
// BEFORE the first poll carries the write sequences of that moment; a write
// acked before it was applied at its backends before it, so any summary
// polled afterwards reflects it. If wseq[rg] moved during the poll, a write
// may have landed after some backend answered — the rect is kept for the
// next round (conservative: a too-wide predicate only costs an extra leg, a
// too-narrow one loses objects).
func (r *Router) refreshOnce() {
	before := r.snap()
	polled := false
	for i, cc := range r.clients {
		if cc.BreakerState() == client.BreakerOpen {
			continue // keep the last summary; probeLoop re-admits it
		}
		sm, err := cc.Summary()
		if err != nil || !before.fits(sm) {
			r.metrics.refreshErrors.Inc()
			continue
		}
		r.summaries[i] = sm
		polled = true
	}
	if !polled {
		return
	}
	tbl, err := buildTable(r.summaries)
	if err != nil {
		r.metrics.refreshErrors.Inc()
		return
	}
	next := newRouting(&tbl)
	// Per-range versions must never go backwards (a cache entry stored
	// under a higher version would resurrect if they did). A returning
	// replica that lagged can drag the min-across-holders down; clamp to
	// the previous snapshot.
	for i := range tbl.version {
		if tbl.version[i] < before.version[i] {
			tbl.version[i] = before.version[i]
		}
	}
	r.wmu.Lock()
	cur := r.snap()
	next.wseq = cur.wseq
	for rg := range next.grow {
		if cur.wseq[rg] != before.wseq[rg] {
			next.grow[rg] = cur.grow[rg]
		}
	}
	r.state.Store(next)
	r.wmu.Unlock()
	r.metrics.refreshes.Inc()
	divergent := 0
	for _, d := range tbl.divergent {
		if d {
			divergent++
		}
	}
	r.metrics.divergentRanges.Set(float64(divergent))
}

// snap returns the current routing snapshot. It is immutable; callers load
// it once and use it for the whole query so every decision within the query
// sees one consistent assignment and one freshness plane.
func (r *Router) snap() *routing { return r.state.Load() }

// Router is the cluster's qcache.Source: each Hilbert range is a
// pseudo-shard of the validity view, so a serve.Server wrapping a Router
// can run the epoch-invalidated result cache over the whole cluster. Each
// method answers from one snapshot load.

// NumShards implements qcache.Source — one pseudo-shard per range of the
// cluster-wide Hilbert partition.
func (r *Router) NumShards() int { return r.snap().numRanges }

// Version implements qcache.Source. The version of range i is the minimum
// write-version its holders reported at the last refresh plus the writes
// this router has routed since that invalidate it. Both halves are monotone
// (the summary half is clamped at refresh, wseq never resets), so the sum never
// goes backwards; it advances on every local write immediately (published
// before the write acks) and on every refresh that observed remote writes.
// Spurious advances (a refresh catching up to writes wseq already counted)
// only cost cache misses, never staleness.
func (r *Router) Version(i int) uint64 {
	s := r.snap()
	return s.version[i] + s.wseq[i]
}

// ShardBounds implements qcache.Source: the range's effective extent, the
// rect reads route by, so a cached region's participants are the ranges a
// re-execution would ask.
func (r *Router) ShardBounds(i int) geom.Rect { return r.snap().eff(i) }

// Bounds is the cluster's extent: the union of the ranges' registered MBRs
// and of the writes routed into them since. A shipment cut through the
// router grows its margin over it, and an empty window centres on it.
func (r *Router) Bounds() geom.Rect {
	s, out := r.snap(), geom.EmptyRect()
	for rg, mbr := range s.rangeMBR {
		out = out.Union(mbr).Union(s.grow[rg])
	}
	return out
}

// everythingRect is the all-covering routing predicate used where a range's
// true extent cannot be trusted.
var everythingRect = geom.Rect{
	Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
	Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)},
}

// noteWrite publishes one routed write into the freshness plane. target is
// the range that received the object's geometry (-1 for deletes, which add
// none); bump[rg] reports that the write invalidates range rg's cached
// results. The widened rects and the bumped sequences are one store — a
// reader that observes the new version also observes the widened predicate,
// so a cache rebuilt after the bump routes to the written object.
func (r *Router) noteWrite(mbr geom.Rect, target int, bump []bool) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	cur := r.snap()
	next := &routing{
		table: cur.table,
		grow:  slices.Clone(cur.grow),
		wseq:  slices.Clone(cur.wseq),
	}
	if target >= 0 {
		next.grow[target] = next.grow[target].Union(mbr)
	}
	for rg, b := range bump {
		if b {
			next.wseq[rg]++
		}
	}
	r.state.Store(next)
}

// Close stops the probe loop and closes every backend client.
func (r *Router) Close() error {
	r.closeOnce.Do(func() { close(r.stopc) })
	r.probeWG.Wait()
	for _, cc := range r.clients {
		if cc != nil {
			cc.Close()
		}
	}
	return nil
}

// Workers reports the router's concurrency width — the serve layer sizes
// its admission window from it. Legs are bounded by the per-backend
// connection pools, so the product is the honest fan-out capacity.
func (r *Router) Workers() int { return r.cfg.ConnsPerBackend * len(r.clients) }

// BackendHealthy reports whether backend b's circuit breaker admits
// traffic.
func (r *Router) BackendHealthy(b int) bool {
	return r.clients[b].BreakerState() != client.BreakerOpen
}

// routerError is a fan-out failure carrying its wire code; the serve layer
// surfaces it via the ErrCode method (proto.CodeOf).
type routerError struct {
	code proto.ErrCode
	msg  string
}

func (e *routerError) Error() string          { return e.msg }
func (e *routerError) ErrCode() proto.ErrCode { return e.code }

// errUnavailable builds the no-healthy-replica failure for one range.
func errUnavailable(rangeIdx int) error {
	return &routerError{
		code: proto.CodeUnavailable,
		msg:  fmt.Sprintf("router: no healthy replica for range %d", rangeIdx),
	}
}

// fanScratch is the pooled per-call fan-out state: the plan of a read
// (exec.go), the legs of a read or a write and what they ship, and the NN
// visit's buffers.
type fanScratch struct {
	q        [1]proto.QueryMsg  // a single query as a batch of one
	item     [1]proto.BatchItem // and its answer
	needed   []int32            // every sub-query's relevant ranges, concatenated
	covered  []int32            // mirrors needed: the covering backend, uncovered or answered
	qoff     []int32            // sub-query i's ranges are needed[qoff[i]:qoff[i+1]]
	nnStarts []nnStart          // the k-NN sub-queries whose first leg answered
	send     legSender          // how this call's read legs travel
	deadline time.Time          // this call's deadline, which caps every leg
	write    writeOp            // the write this call's write legs carry
	rot      int                // this round's replica rotation, kept by the k-NN visits that go on from it
	sel      []int32            // this round's legs: the backend of each
	legs     []readLeg          // mirrors sel: a read leg's slots and answers
	acks     []client.UpdateAck // mirrors sel: a write leg's ack
	errs     []error            // mirrors sel: the leg's outcome
	wg       sync.WaitGroup     // the legs in flight
	failed   []bool             // backend id -> failed during this call
	open     []bool             // range id -> the sub-query or NN being planned still needs it
	eff      []geom.Rect        // NN: every range's effective extent
	order    []shard.IndexDist  // NN visit order: ranges by ascending MINDIST
	nnLeg    readLeg            // NN: the visit's one-slot continuation leg
	nbrTmp   []rtree.Neighbor   // NN merge temp
	acc      []rtree.Neighbor   // NN running best-k
}

// nnStart is a batch k-NN sub-query (index qi) whose first leg backend b
// answered in a grouped round: where its visit starts.
type nnStart struct{ qi, b int32 }

func (r *Router) getScratch() *fanScratch {
	sc := r.scratch.Get().(*fanScratch)
	// One zeroed entry per backend: nothing failed, no leg outcome. The
	// per-range state (open) is sized by the snapshot the call loads.
	n := len(r.clients)
	sc.failed = append(sc.failed[:0], make([]bool, n)...)
	sc.errs = append(sc.errs[:0], make([]error, n)...)
	return sc
}

func (r *Router) putScratch(sc *fanScratch) { r.scratch.Put(sc) }

// legFunc ships leg li of the round (to backend sc.sel[li]). It is always a
// top-level function reading what it ships from sc, so handing one to
// runLegs allocates nothing.
type legFunc func(r *Router, sc *fanScratch, li int) error

// runLegs runs leg for every leg of the round concurrently, the first on the
// calling goroutine — most fan-outs have one — and records each outcome in
// sc.errs[li] and the per-backend leg metrics.
func (r *Router) runLegs(sc *fanScratch, leg legFunc) {
	for li := 1; li < len(sc.sel); li++ {
		sc.wg.Add(1)
		go func(li int) {
			defer sc.wg.Done()
			r.runLeg(sc, li, leg)
		}(li)
	}
	if len(sc.sel) > 0 {
		r.runLeg(sc, 0, leg)
	}
	sc.wg.Wait()
}

func (r *Router) runLeg(sc *fanScratch, li int, leg legFunc) {
	b := sc.sel[li]
	start := time.Now()
	sc.errs[li] = leg(r, sc, li)
	r.observeLeg(int(b), time.Since(start), sc.errs[li])
}
