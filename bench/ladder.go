// ladder.go is the traced run: the counted pass with a span per exchange,
// the rungs replayed from outside through each layer's public functions, and
// the counts read from the obs registries around one untraced round. Every
// per-layer metric comes from here; no end-to-end metric does.
package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"mobispatial/bench/workload"
	"mobispatial/internal/core"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
)

// Open-loop rates, operations/s: about 40% of each workload's closed-loop
// qps on the seed code, two significant figures, fixed so that two results
// are comparable.
var openRate = map[string]float64{
	"static": 24000, "hotspot": 31000, "moving": 17000, "cluster": 6800,
}

const (
	overlayMoves = 256 // writes left pending in the overlay rung's pool
	segofProbes  = 4096
	requestUS    = 5_000_000 // the client's default request timeout, as sent
)

// ladder replays operations through the layers. Its buffers are reused so a
// rung measures the layer, not the benchmark's allocations.
type ladder struct {
	e   *env
	tr  *tracer
	ops []workload.Op
	ans []answer

	exec serve.Executor // the workload's front executor
	name string         // its rung name: parallel, mutable or router

	buf  []byte
	rd   bytes.Reader
	ids  []uint32
	nbs  []rtree.Neighbor
	psc  parallel.Scratch
	nnsc rtree.NNScratch

	// The result-cache replica of the hotspot chain: same configuration as
	// the server's, filled by the replay itself.
	qc        *qcache.Cache
	qsrc      qcache.Source
	pre, post qcache.View
	cids      []uint32
	csegs     []geom.Segment
	cdists    []float64
}

func (l *ladder) span(i int, name, parent string, t0 time.Time) {
	l.tr.add(i, name, parent, t0, time.Now())
}

// ofKind keeps the operations of one kind.
func (l *ladder) ofKind(k workload.Kind) func(int) bool {
	return func(i int) bool { return l.ops[i].Kind == k }
}

// codec times one message through AppendFrame and ReadMessage+ReleaseMessage,
// the two halves of the wire format every exchange pays on each side.
func (l *ladder) codec(i int, m proto.Message, enc, dec string) error {
	var err error
	t0 := time.Now()
	l.buf, err = proto.AppendFrame(l.buf[:0], m)
	l.span(i, enc, spanRoundTrip, t0)
	if err != nil {
		return err
	}
	l.rd.Reset(l.buf)
	t0 = time.Now()
	got, _, err := proto.ReadMessage(&l.rd)
	if err == nil {
		proto.ReleaseMessage(got)
	}
	l.span(i, dec, spanRoundTrip, t0)
	return err
}

// request is operation i as the client puts it on the wire.
func (l *ladder) request(i int) proto.Message {
	op := &l.ops[i]
	if op.Kind == workload.Move {
		return &proto.MoveMsg{ID: uint32(i + 1), ObjID: op.ID, Seg: op.Seg(), TimeoutMicros: requestUS}
	}
	q := queryMsg(op)
	q.ID, q.TimeoutMicros = uint32(i+1), requestUS
	return &q
}

// reply is the answer to operation i as the server put it on the wire.
func (l *ladder) reply(i int) proto.Message {
	op, a := &l.ops[i], &l.ans[i]
	switch {
	case op.Kind == workload.Move:
		return &proto.UpdateAckMsg{ID: uint32(i + 1), ObjID: op.ID, Epoch: a.ack.Epoch, Existed: a.ack.Existed, Owned: a.ack.Owned}
	case op.Data || op.Kind == workload.NN:
		return &proto.DataListMsg{ID: uint32(i + 1), Epoch: 1, Records: a.recs}
	}
	return &proto.IDListMsg{ID: uint32(i + 1), Epoch: 1, IDs: a.ids}
}

// run executes one read on an executor through the append surface the server
// itself calls.
func (l *ladder) run(x serve.Executor, op *workload.Op) {
	switch op.Kind {
	case workload.Point:
		l.ids = x.PointAppend(l.ids[:0], op.Pt(), serve.DefaultPointEps)
	case workload.Range:
		l.ids = x.RangeAppend(l.ids[:0], op.Win())
	case workload.NN:
		if op.K > 1 {
			l.nbs, _ = x.KNearestAppend(l.nbs[:0], op.Pt(), int(op.K), &l.psc)
		} else {
			x.NearestWith(op.Pt(), &l.psc)
		}
	}
}

// runUntil is run through the router's fallible surface, which is the one
// the server drives a distributed pool through.
func (l *ladder) runUntil(x serve.DeadlineExecutor, op *workload.Op, deadline time.Time) (err error) {
	switch op.Kind {
	case workload.Point:
		l.ids, err = x.PointAppendUntil(l.ids[:0], op.Pt(), serve.DefaultPointEps, deadline)
	case workload.Range:
		l.ids, err = x.RangeAppendUntil(l.ids[:0], op.Win(), deadline)
	case workload.NN:
		l.nbs, err = x.KNearestAppendUntil(l.nbs[:0], op.Pt(), max(int(op.K), 1), &l.psc, deadline)
	}
	return err
}

// filter times the packed tree's filtering step alone. Where the executor
// rung ran the same query on the same tree it is that rung's child, and the
// executor's self time is its refinement.
func (l *ladder) filter(i int, parent string) {
	op, tree := &l.ops[i], l.e.st.tree
	t0 := time.Now()
	switch op.Kind {
	case workload.Point:
		l.ids = tree.AppendSearchPoint(l.ids[:0], op.Pt(), ops.Null{})
	case workload.Range:
		l.ids = tree.AppendSearch(l.ids[:0], op.Win(), ops.Null{})
	case workload.NN:
		tree.NearestWith(op.Pt(), l.psc.DistTo(l.e.st.ds, op.Pt()), ops.Null{}, &l.nnsc)
	}
	l.span(i, spanFilter, parent, t0)
}

// execute is the executor rung of operation i on the workload's own chain.
func (l *ladder) execute(i int) error {
	op := &l.ops[i]
	rung := l.name + ".exec"
	switch {
	case l.qc != nil:
		return l.cached(i, rung)
	case op.Kind == workload.Move:
		// The same write again: an upsert to the geometry the ack already
		// confirmed, so the world the oracle tracks does not change.
		t0 := time.Now()
		_, _, _, err := l.e.st.mut.ApplyMove(op.ID, op.Seg())
		l.span(i, rung, spanRoundTrip, t0)
		return err
	case l.e.st.rtr != nil:
		deadline := time.Now().Add(5 * time.Second)
		t0 := time.Now()
		err := l.runUntil(l.e.st.rtr, op, deadline)
		l.span(i, rung, spanRoundTrip, t0)
		return err
	}
	t0 := time.Now()
	l.run(l.exec, op)
	l.span(i, rung, spanRoundTrip, t0)
	return nil
}

// cached is serve/cache.go's lookupOrFill from outside: snap the key, probe
// the cache, and on a miss execute the snapped superset and store it.
func (l *ladder) cached(i int, rung string) error {
	op := &l.ops[i]
	t0 := time.Now()
	var (
		key    qcache.Key
		region geom.Rect
		ok     bool
	)
	switch op.Kind {
	case workload.Point:
		key, region, ok = qcache.PointKey(op.Pt(), l.qc.CellSize())
	case workload.Range:
		key, region, ok = qcache.RangeKey(op.Win(), l.qc.CellSize(), false)
	default:
		key, ok = qcache.NNKey(op.Pt(), max(int(op.K), 1))
		region = everywhere
	}
	if !ok {
		return fmt.Errorf("operation %d is not cacheable", i)
	}
	qcache.BuildView(l.qsrc, region, &l.pre)
	var hit bool
	l.cids, l.csegs, l.cdists, hit = l.qc.Get(key, &l.pre, l.cids[:0], l.csegs[:0], l.cdists[:0])
	if hit {
		l.span(i, spanCacheGet+"_hit", spanRoundTrip, t0)
		return nil
	}
	l.span(i, spanCacheGet+"_miss", spanRoundTrip, t0)

	par, ds := l.e.st.par, l.e.st.ds
	l.cids, l.csegs, l.cdists = l.cids[:0], l.csegs[:0], l.cdists[:0]
	t0 = time.Now()
	switch op.Kind {
	case workload.Point:
		l.cids = par.FilterRangeAppend(l.cids, region)
	case workload.Range:
		l.cids = par.RangeAppend(l.cids, region)
	default:
		if nn := par.NearestWith(op.Pt(), &l.psc); nn.OK {
			l.cids, l.cdists = append(l.cids, nn.ID), append(l.cdists, nn.Dist)
		}
	}
	for _, id := range l.cids {
		l.csegs = append(l.csegs, ds.Seg(id))
	}
	l.span(i, rung, spanRoundTrip, t0)

	t0 = time.Now()
	qcache.BuildView(l.qsrc, region, &l.post)
	l.qc.Put(key, &l.pre, &l.post, l.cids, l.csegs, l.cdists)
	l.span(i, spanCachePut, spanRoundTrip, t0)
	return nil
}

var everywhere = geom.Rect{
	Min: geom.Point{X: -1e300, Y: -1e300}, Max: geom.Point{X: 1e300, Y: 1e300},
}

// chain replays every operation through the rungs of its own request path,
// in the order a request crosses them.
func (l *ladder) chain() error {
	for i := range l.ops {
		if err := l.codec(i, l.request(i), spanEncodeReq, spanDecodeReq); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if err := l.execute(i); err != nil {
			return fmt.Errorf("executor rung %d: %w", i, err)
		}
		if l.ans[i].err != nil {
			continue // a failed exchange has no reply to encode
		}
		if err := l.codec(i, l.reply(i), spanEncodeReply, spanDecodeReply); err != nil {
			return fmt.Errorf("reply %d: %w", i, err)
		}
	}
	return nil
}

// side replays the reads through an engine that is not on the workload's
// path, as spans of their own.
func (l *ladder) side(rung string, x serve.Executor, keep func(*workload.Op) bool) {
	for i := range l.ops {
		if op := &l.ops[i]; op.Kind != workload.Move && (keep == nil || keep(op)) {
			t0 := time.Now()
			l.run(x, op)
			l.span(i, rung, "", t0)
		}
	}
}

// kindMetrics reports a rung's median per query kind.
func (l *ladder) kindMetrics(res *result, rung string, names [3]string) {
	for k, name := range names {
		if name != "" {
			res.set(name, l.tr.p50(rung, l.ofKind(workload.Kind(k))))
		}
	}
}

// rtreeRung times the packed tree's three searches on their own and counts,
// in a second untimed call, the nodes they visit and the candidates the
// filter hands to refinement.
func (l *ladder) rtreeRung(res *result) {
	tree, ds := l.e.st.tree, l.e.st.ds
	parent := ""
	if l.qc == nil {
		parent = l.name + ".exec"
	}
	var counts ops.Counts
	var queries, candidates, results int
	for i := range l.ops {
		op := &l.ops[i]
		if op.Kind == workload.Move {
			continue
		}
		l.filter(i, parent)
		queries++
		switch op.Kind {
		case workload.Point:
			candidates += len(tree.AppendSearchPoint(l.ids[:0], op.Pt(), &counts))
			results += len(l.e.oracle.pool.PointAppend(l.ids[:0], op.Pt(), serve.DefaultPointEps))
		case workload.Range:
			candidates += len(tree.AppendSearch(l.ids[:0], op.Win(), &counts))
			results += len(l.e.oracle.pool.RangeAppend(l.ids[:0], op.Win()))
		case workload.NN:
			tree.NearestWith(op.Pt(), l.psc.DistTo(ds, op.Pt()), &counts, &l.nnsc)
		}
	}
	l.kindMetrics(res, spanFilter, [3]string{"rtree.point_ns", "rtree.range_ns", "rtree.nn_ns"})
	res.set("rtree.nodes_per_query", float64(counts.Ops[ops.OpNodeVisit])/float64(max(queries, 1)))
	res.set("rtree.candidates_per_result", float64(candidates)/float64(max(results, 1)))
}

// localRungs builds the four local engines and replays the reads through the
// three that are not already on the path, then measures the write side of
// the mutable pool: a move, a per-record SegOf, and a forced compaction.
func (l *ladder) localRungs(res *result) error {
	eng, err := newLocalEngines(l.e.st.ds, l.e.st.tree)
	if err != nil {
		return err
	}
	defer eng.close()
	ds := l.e.st.ds

	if l.e.st.par == nil {
		l.side("parallel.exec", eng.par, nil)
	}
	l.kindMetrics(res, "parallel.exec", [3]string{"parallel.point_ns", "parallel.range_ns", "parallel.nn_ns"})

	l.side("shard.exec", eng.shard, nil)
	l.kindMetrics(res, "shard.exec", [3]string{"shard.point_ns", "shard.range_ns", "shard.knn_ns"})
	shardCounts(res, counters(eng.reg.Snapshot()))

	l.side("mutable.clean", eng.clean, nil)
	l.kindMetrics(res, "mutable.clean", [3]string{"mutable.point_clean_ns", "mutable.range_clean_ns", "mutable.nn_clean_ns"})

	// Leave overlayMoves writes pending, spread over the map, then read.
	for j := 0; j < overlayMoves; j++ {
		id, sg := uint32(ds.Len()+j), ds.Seg(uint32(j*(ds.Len()/overlayMoves)))
		t0 := time.Now()
		_, _, _, err := eng.overlay.ApplyMove(id, sg)
		l.span(j, "mutable.move", "", t0)
		if err != nil {
			return fmt.Errorf("overlay move: %w", err)
		}
	}
	l.side("mutable.overlay", eng.overlay, func(op *workload.Op) bool { return op.Kind == workload.Range })
	res.set("mutable.range_overlay_ns", l.tr.p50("mutable.overlay", nil))
	res.set("mutable.move_ns", l.tr.p50("mutable.move", nil))

	// SegOf is what a data-mode reply pays per record on a mutable pool.
	for j := 0; j < segofProbes; j++ {
		id := uint32(j * (ds.Len() / segofProbes))
		if j%8 == 0 {
			id = uint32(ds.Len() + j%overlayMoves)
		}
		t0 := time.Now()
		eng.overlay.SegOf(id)
		l.span(j, "mutable.segof", "", t0)
	}
	res.set("mutable.segof_ns", l.tr.p50("mutable.segof", nil))

	t0 := time.Now()
	eng.overlay.ForceCompact()
	res.set("mutable.compact_ms", time.Since(t0).Seconds()*1e3)
	return nil
}

// plannerRung prices the paper's §4.1 choice on queries a 4 MB shipment
// covers: the time to plan, the time and modeled Joules to answer locally,
// and the modeled NIC Joules of offloading the same queries in id mode.
func (l *ladder) plannerRung(res *result) error {
	const shipHalfM, shipBudget = 5000.0, 4 << 20
	pl, err := newPlanner(l.e.st, shipHalfM, shipBudget)
	if err != nil {
		return err
	}
	cov := pl.Shipment().Coverage
	em := obs.DefaultEnergyModel()
	gen, err := workload.New("static", l.e.src, l.e.cfg.seed+2, 0, 1)
	if err != nil {
		return err
	}
	ring := make([]workload.Op, 4*l.e.cfg.size.plannerOps)
	gen.Fill(ring)
	var plan, local []int64
	var localJ float64
	c := l.e.st.cli
	base := c.WireStats()
	for i := range ring {
		op := &ring[i]
		// Move the query into the covered window, keeping its shape.
		var q core.Query
		switch op.Kind {
		case workload.Range:
			c, w := cov.Center(), op.Win()
			q = core.Range(geom.Rect{Min: c, Max: c}.Expand(min(w.Width(), cov.Width()*0.9) / 2))
		case workload.Point:
			q = core.Point(cov.Center())
		default:
			q = core.Nearest(cov.Center())
		}
		if !pl.Shipment().Covers(q) {
			continue
		}
		t0 := time.Now()
		pl.Plan(q)
		t1 := time.Now()
		if _, err := pl.Shipment().Answer(q, 0); err != nil {
			return err
		}
		t2 := time.Now()
		plan = append(plan, int64(t1.Sub(t0)))
		local = append(local, int64(t2.Sub(t1)))
		j, _ := em.Compute(t2.Sub(t1).Seconds())
		localJ += j
		if q.Kind == core.RangeQuery {
			_, err = c.RangeIDs(q.Window)
		} else {
			_, err = c.PointIDs(q.Point, 0)
		}
		if err != nil {
			return err
		}
		if len(plan) == l.e.cfg.size.plannerOps {
			break
		}
	}
	if len(plan) == 0 {
		return fmt.Errorf("no planner query was covered by the shipment")
	}
	res.set("planner.plan_ns", pct(sorted(plan), 0.5))
	res.set("planner.local_ns", pct(sorted(local), 0.5))
	res.set("planner.local_mj_per_query", localJ/float64(len(plan))*1e3)
	res.set("planner.offload_mj_per_query", wireSince(c, base).nicMilliJoulesPerQuery())
	return nil
}

// counters indexes a snapshot's counters by name.
func counters(s obs.Snapshot) map[string]float64 {
	m := make(map[string]float64, len(s.Counters))
	for _, c := range s.Counters {
		m[c.Name] = float64(c.Value)
	}
	return m
}

// delta subtracts the counters of a from b, summing over several registries
// when the stack has several (the cluster's backends).
func delta(before, after []obs.Snapshot) map[string]float64 {
	d := map[string]float64{}
	for i := range after {
		b := counters(before[i])
		for name, v := range counters(after[i]) {
			d[name] += v - b[name]
		}
	}
	return d
}

// sumPrefix adds up the counters whose name starts with prefix (labelled
// families such as router_backend_legs_total{backend="..."}).
func sumPrefix(d map[string]float64, prefix string) (s float64) {
	for name, v := range d {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shardCounts reports the sharded pool's fan-out and NN pruning.
func shardCounts(res *result, d map[string]float64) {
	res.set("shard.fanout_per_query", ratio(d["shard_fanout_shards_total"], d["shard_scatter_total"]+d["shard_inline_total"]))
	res.set("shard.nn_pruned_ratio", ratio(d["shard_nn_shards_pruned_total"], d["shard_nn_shards_visited_total"]+d["shard_nn_shards_pruned_total"]))
}

// gaugeWatch polls the mutable pool's per-shard gauges while a round runs:
// the most writes ever pending in the overlays and the oldest overlay seen.
type gaugeWatch struct {
	stop                 chan struct{}
	wg                   sync.WaitGroup
	pendingMax, staleMax float64
}

func watchGauges(reg *obs.Registry) *gaugeWatch {
	g := &gaugeWatch{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			var pending float64
			for _, gv := range reg.Snapshot().Gauges {
				switch {
				case strings.HasPrefix(gv.Name, "mutable_pending{"):
					pending += gv.Value
				case strings.HasPrefix(gv.Name, "mutable_staleness_seconds{"):
					g.staleMax = max(g.staleMax, gv.Value)
				}
			}
			g.pendingMax = max(g.pendingMax, pending)
		}
	}()
	return g
}

func (g *gaugeWatch) done() {
	close(g.stop)
	g.wg.Wait()
}

func sorted(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// mallocs is the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// protoAllocs counts what the wire format allocates per frame: every request
// and reply of the pass encoded and decoded once more, messages built
// beforehand so that only the codec's own allocations are counted.
func (l *ladder) protoAllocs(res *result) error {
	var msgs []proto.Message
	for i := range l.ops {
		msgs = append(msgs, l.request(i))
		if l.ans[i].err == nil {
			msgs = append(msgs, l.reply(i))
		}
	}
	m0 := mallocs()
	for _, m := range msgs {
		var err error
		if l.buf, err = proto.AppendFrame(l.buf[:0], m); err != nil {
			return err
		}
		l.rd.Reset(l.buf)
		got, _, err := proto.ReadMessage(&l.rd)
		if err != nil {
			return err
		}
		proto.ReleaseMessage(got)
	}
	res.set("proto.allocs_per_frame", float64(mallocs()-m0)/float64(len(msgs)))
	return nil
}

// pingP50 is the median empty round trip: the whole chain minus executor and
// payload.
func pingP50(st *stack, n int) (float64, error) {
	samples := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		d, err := st.cli.Ping(0)
		if err != nil {
			return 0, fmt.Errorf("ping: %w", err)
		}
		samples = append(samples, int64(d))
	}
	return pct(sorted(samples), 0.5), nil
}

// snapshots copies the registries of the front server and of the backends.
func (s *stack) snapshots() (front obs.Snapshot, back []obs.Snapshot) {
	for _, h := range s.backHubs {
		back = append(back, h.Reg.Snapshot())
	}
	return s.hub.Reg.Snapshot(), back
}

// observe runs one untraced unbatched round, one batched round and the
// open-loop phase, and reads the layers' own counters around them.
func (e *env) observe(res *result) error {
	cfg, st, c := e.cfg, e.st, e.st.cli
	ws, err := e.newWorkers()
	if err != nil {
		return err
	}
	runRound(c, ws, cfg.size.warmup/2, (*worker).unbatched)
	runRound(c, ws, cfg.size.warmup/2, (*worker).batched)
	secs := func(share float64) time.Duration { return time.Duration(cfg.seconds * share * float64(time.Second)) }

	f0, b0 := st.snapshots()
	gc0 := gcCycles()
	var watch *gaugeWatch
	if st.mut != nil {
		watch = watchGauges(st.hub.Reg)
	}
	u := runRound(c, ws, secs(0.4), (*worker).unbatched)
	if watch != nil {
		watch.done()
		res.set("mutable.pending_max", watch.pendingMax)
		res.set("mutable.staleness_max_s", watch.staleMax)
	}
	res.set("loadgen.gc_cycles", float64(gcCycles()-gc0))
	f1, b1 := st.snapshots()
	wire0 := c.WireStats()
	b := runRound(c, ws, secs(0.2), (*worker).batched)
	wireB := wireSince(c, wire0)
	f2, _ := st.snapshots()
	open := openLoop(c, ws, openRate[cfg.workload], secs(0.4))
	res.Attempted += u.ops + b.ops + open.ops
	res.Failed += u.failed + b.failed + open.failed + e.finalSweep(ws)

	reads := u.reads()
	res.set("client.lat_point_p50_us", pct(u.lat[workload.Point], 0.5)/1e3)
	res.set("client.lat_range_p50_us", pct(u.lat[workload.Range], 0.5)/1e3)
	res.set("client.lat_nn_p50_us", pct(u.lat[workload.NN], 0.5)/1e3)
	res.set("client.lat_p99_us", pct(reads, 0.99)/1e3)
	res.set("client.lat_p999_us", pct(reads, 0.999)/1e3)
	res.Metrics["client.lat_p999_us"].N = len(reads)
	res.set("client.write_p50_us", pct(u.lat[workload.Move], 0.5)/1e3)
	res.set("client.write_p99_us", pct(u.lat[workload.Move], 0.99)/1e3)
	res.set("client.retries", float64(c.Retries()))
	res.set("client.frames_per_query_batched", wireB.framesPerQuery())
	res.set("client.nic_mj_per_query_batched", wireB.nicMilliJoulesPerQuery())

	res.set("loadgen.open_rate_qps", open.rate)
	res.set("loadgen.open_p50_us", pct(open.lat, 0.5)/1e3)
	res.set("loadgen.open_p99_us", pct(open.lat, 0.99)/1e3)
	res.set("loadgen.open_lag_p99_us", pct(open.lag, 0.99)/1e3)
	res.set("loadgen.open_backlog_max", float64(open.backlogMax))

	// The unbatched round's counters, the batched round's, and both.
	dU := delta([]obs.Snapshot{f0}, []obs.Snapshot{f1})
	dB := delta([]obs.Snapshot{f1}, []obs.Snapshot{f2})
	dAll := delta([]obs.Snapshot{f0}, []obs.Snapshot{f2})
	res.set("serve.frames_per_write", ratio(dU["serve_write_frames_total"], dU["serve_writes_total"]))
	res.set("serve.overloads", dAll["serve_overloads_total"])
	res.set("serve.deadlines", dAll["serve_deadlines_total"])
	res.set("serve.errors", dAll["serve_errors_total"])
	// The execution histogram of the query shape the workload sends most;
	// histograms are cumulative, so this covers the whole run.
	var busiest obs.HistValue
	for _, h := range f2.Hists {
		switch {
		case strings.HasPrefix(h.Name, "serve_exec_seconds{") && h.Count > busiest.Count:
			busiest = h
		case h.Name == "serve_admit_wait_seconds":
			res.set("serve.admit_wait_p99_us", h.P99*1e6)
		}
	}
	res.set("serve.exec_p50_us", busiest.P50*1e6)
	res.Notes["serve.exec_p50_us"] = busiest.Name

	switch {
	case st.qc != nil:
		res.set("qcache.hit_ratio", ratio(dU["qcache_hits_total"], dU["qcache_hits_total"]+dU["qcache_misses_total"]))
		res.set("qcache.entries", float64(st.qc.Stats().Entries))
		res.set("qcache.evictions", dAll["qcache_evictions_total"])
		res.set("qcache.invalidations", dAll["qcache_invalidations_total"])
		res.set("qcache.store_races", dAll["qcache_store_races_total"])
	case st.mut != nil:
		res.set("mutable.compactions", dU["mutable_compactions_total"])
		res.set("mutable.not_owned", dAll["mutable_not_owned_total"])
	case st.rtr != nil:
		res.set("router.legs_per_query", ratio(sumPrefix(dU, "router_backend_legs_total{"), float64(u.ops)))
		res.set("router.nn_pruned_ratio", ratio(dU["router_nn_backends_pruned_total"],
			dU["router_nn_backends_visited_total"]+dU["router_nn_backends_pruned_total"]))
		res.set("router.batch_legs_per_batch", ratio(dB["router_batch_legs_total"], dB["router_batches_total"]))
		res.set("router.failovers", dAll["router_failover_total"])
		res.set("router.unroutable", dAll["router_unroutable_total"])
		shardCounts(res, delta(b0, b1))
	}
	return nil
}

// runTraced measures every per-layer metric of one workload and writes the
// span file.
func runTraced(cfg runConfig, outDir string) (*result, error) {
	res := newResult(cfg, 1)
	cfg.size.setups = 1 // setup_s is the untraced run's
	e, _, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer e.st.close()
	st := e.st
	res.set("dataset.generate_ms", st.datasetGen.Seconds()*1e3)
	res.set("rtree.build_ms", st.treeBuild.Seconds()*1e3)

	// Host calibration: none of it is the program's, all of it moves the
	// program's numbers.
	ref, err := newHostRef(1)
	if err != nil {
		return nil, err
	}
	echo, err := ref.rtt(cfg.size.pings)
	ref.close()
	if err != nil {
		return nil, err
	}
	res.set("loadgen.echo_rtt_ns", echo)
	res.set("loadgen.calib_mops", calibMops())
	res.set("loadgen.timer_ns", timerNs())

	// The counted pass twice over consecutive stretches of the stream: once
	// bare, once recording a span per exchange. The difference of their
	// medians is what recording costs.
	bare, err := e.countedPass(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(12 * cfg.size.countedOps)
	cp, err := e.countedPass(tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += bare.ops + cp.ops
	res.Failed += bare.failed + cp.failed
	rt := pct(sorted(cp.rt), 0.5)
	res.set("client.roundtrip_p50_ns", rt)
	res.set("loadgen.trace_overhead_ns", rt-pct(sorted(bare.rt), 0.5))
	res.set("proto.frames_per_query", cp.wire.framesPerQuery())
	res.set("proto.bytes_per_query", cp.wire.bytesPerQuery())

	l := &ladder{e: e, tr: tr, ops: cp.ring, ans: cp.answers, exec: st.exec}
	switch {
	case st.mut != nil:
		l.name = "mutable"
	case st.rtr != nil:
		l.name = "router"
	default:
		l.name = "parallel"
	}
	if st.qc != nil {
		l.qc, l.qsrc = newCacheReplica(st)
	}
	if err := l.chain(); err != nil {
		return nil, err
	}
	if err := l.protoAllocs(res); err != nil {
		return nil, err
	}
	res.set("proto.encode_req_ns", tr.p50(spanEncodeReq, nil))
	res.set("proto.decode_req_ns", tr.p50(spanDecodeReq, nil))
	res.set("proto.encode_reply_ns", tr.p50(spanEncodeReply, nil))
	res.set("proto.decode_reply_ns", tr.p50(spanDecodeReply, nil))

	// The residual is what the round trip spends outside the replayed rungs:
	// dispatch, admission, the coalesced write, syscalls and wakeups. A rung
	// counts when the median operation crosses it.
	explained, rungs := 0.0, []string{}
	for _, name := range []string{spanEncodeReq, spanDecodeReq, spanCacheGet + "_hit", l.name + ".exec", spanEncodeReply, spanDecodeReply} {
		if d := tr.durations(name, nil); 2*len(d) > len(l.ops) {
			explained += pct(d, 0.5)
			rungs = append(rungs, name)
		}
	}
	ping, err := pingP50(st, cfg.size.pings)
	if err != nil {
		return nil, err
	}
	res.set("serve.ping_ns", ping)
	res.set("serve.residual_ns", rt-explained)
	res.set("serve.unexplained_ns", rt-explained-ping)
	res.Notes["serve.residual_ns"] = "client.roundtrip_p50_ns minus the p50 of: " + strings.Join(rungs, ", ")

	switch cfg.workload {
	case "static":
		l.rtreeRung(res)
		if err := l.localRungs(res); err != nil {
			return nil, err
		}
		if err := l.plannerRung(res); err != nil {
			return nil, err
		}
	case "hotspot":
		l.rtreeRung(res)
		l.kindMetrics(res, "parallel.exec", [3]string{"parallel.point_ns", "parallel.range_ns", "parallel.nn_ns"})
		res.set("qcache.get_hit_ns", tr.p50(spanCacheGet+"_hit", nil))
		res.set("qcache.get_miss_ns", tr.p50(spanCacheGet+"_miss", nil))
		res.set("qcache.put_ns", tr.p50(spanCachePut, nil))
	case "moving":
		if err := l.localRungs(res); err != nil {
			return nil, err
		}
	case "cluster":
		l.kindMetrics(res, "router.exec", [3]string{"router.point_ns", "router.range_ns", "router.knn_ns"})
		res.set("router.hop_ns", rt-tr.p50("router.exec", nil))
	}

	if err := e.observe(res); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace_"+cfg.workload+".jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}
