// loadgen.go is the load generator: closed-loop rounds (one request, or one
// 16-query batch, in flight per worker), the ungated open-loop phase, and
// the host calibration probes. Rings of operations are filled before the
// clock starts, so the generator allocates nothing inside a timed loop.
package main

import (
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"mobispatial/bench/workload"
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

const batchSize = 16

// answer is what one operation returned.
type answer struct {
	ids  []uint32
	recs []proto.Record
	ack  client.UpdateAck
	err  error
}

// issue sends one operation through the client's public methods, the way
// cmd/mqload does.
func issue(c *client.Client, o *workload.Op) (a answer) {
	switch o.Kind {
	case workload.Point:
		if o.Data {
			a.recs, a.err = c.Point(o.Pt(), 0)
		} else {
			a.ids, a.err = c.PointIDs(o.Pt(), 0)
		}
	case workload.Range:
		if o.Data {
			a.recs, a.err = c.Range(o.Win())
		} else {
			a.ids, a.err = c.RangeIDs(o.Win())
		}
	case workload.NN:
		a.recs, a.err = c.KNearest(o.Pt(), max(int(o.K), 1))
	case workload.Move:
		a.ack, a.err = c.Move(o.ID, o.Seg())
	}
	return a
}

// queryMsg is the wire form of a read operation, as the client builds it.
func queryMsg(o *workload.Op) proto.QueryMsg {
	q := proto.QueryMsg{Mode: proto.ModeIDs, Point: o.Pt()}
	if o.Data {
		q.Mode = proto.ModeData
	}
	switch o.Kind {
	case workload.Point:
		q.Kind = proto.KindPoint
	case workload.Range:
		q.Kind, q.Point, q.Window = proto.KindRange, geom.Point{}, o.Win()
	case workload.NN:
		q.Kind, q.Mode, q.K = proto.KindNN, proto.ModeData, max(o.K, 1)
	}
	return q
}

// worker is one closed-loop client: its stream, its ring, and its samples.
type worker struct {
	gen   *workload.Gen
	ring  []workload.Op
	pos   int
	fresh bool // refill the ring before every round
	// lat[k] are the per-request latencies of kind k in ns, kept exactly
	// (sorted for percentiles, never bucketed).
	lat    [workload.NumKinds][]int64
	ops    int64 // completed operations (a batch counts its queries)
	failed int64
	// ledger[id] is the last acked geometry of each vehicle this worker
	// drives; no other worker writes them.
	ledger map[uint32]geom.Segment
	batch  []proto.QueryMsg
}

func (w *worker) reset() {
	for k := range w.lat {
		w.lat[k] = w.lat[k][:0]
	}
	w.ops, w.failed = 0, 0
}

// refill draws the next ringful of the worker's stream, off the clock.
func (w *worker) refill() {
	w.gen.Fill(w.ring)
	w.pos = 0
}

func (w *worker) next() *workload.Op {
	o := &w.ring[w.pos]
	if w.pos++; w.pos == len(w.ring) {
		w.pos = 0
	}
	return o
}

// unbatched runs the closed loop with one request in flight until the
// deadline.
func (w *worker) unbatched(c *client.Client, deadline time.Time) {
	for {
		o := w.next()
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		a := issue(c, o)
		w.lat[o.Kind] = append(w.lat[o.Kind], int64(time.Since(t0)))
		w.ops++
		if a.err != nil {
			w.failed++
			continue
		}
		if o.Kind != workload.Move {
			continue
		}
		w.ledger[o.ID] = o.Seg()
		if o.Readback {
			// Read-your-writes: the move was acked, so a range read over
			// the fresh geometry must return the vehicle.
			ids, err := c.RangeIDs(o.Seg().MBR())
			w.ops++
			if err != nil || !slices.Contains(ids, o.ID) {
				w.failed++
			}
		}
	}
}

// batched runs the closed loop with one QueryBatch(16) in flight until the
// deadline. Writes cannot be batched. On the moving workload the first Move
// met while a batch fills is sent on its own ahead of the batch and the
// others are skipped: with no writes at all the overlays would drain and the
// loop would time a clean pool in some rounds and a merging one in others.
func (w *worker) batched(c *client.Client, deadline time.Time) {
	for time.Now().Before(deadline) {
		w.batch = w.batch[:0]
		moved := false
		for len(w.batch) < batchSize {
			o := w.next()
			switch {
			case o.Kind != workload.Move:
				w.batch = append(w.batch, queryMsg(o))
			case !moved:
				moved = true
				w.ops++
				if _, err := c.Move(o.ID, o.Seg()); err != nil {
					w.failed++
				} else {
					w.ledger[o.ID] = o.Seg()
				}
			}
		}
		rs, err := c.QueryBatch(w.batch)
		w.ops += batchSize
		if err != nil {
			w.failed += batchSize
			continue
		}
		for i := range rs {
			if rs[i].Err != nil {
				w.failed++
			}
		}
	}
}

// roundResult is what one timed round measured.
type roundResult struct {
	ops, failed int64
	seconds     float64
	cpuSeconds  float64
	lat         [workload.NumKinds][]int64 // merged over workers, sorted
}

func (r *roundResult) qps() float64 { return float64(r.ops) / r.seconds }

// reads returns the read latencies of the round, sorted.
func (r *roundResult) reads() []int64 {
	var out []int64
	for k := workload.Point; k <= workload.NN; k++ {
		out = append(out, r.lat[k]...)
	}
	slices.Sort(out)
	return out
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRound runs every worker's loop for d and merges what they measured.
func runRound(c *client.Client, ws []*worker, d time.Duration, loop func(*worker, *client.Client, time.Time)) roundResult {
	for _, w := range ws {
		w.reset()
		if w.fresh {
			w.refill()
		}
	}
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			loop(w, c, deadline)
		}(w)
	}
	wg.Wait()
	r := roundResult{seconds: time.Since(t0).Seconds(), cpuSeconds: cpuTime() - cpu0}
	for _, w := range ws {
		r.ops += w.ops
		r.failed += w.failed
		for k := range w.lat {
			r.lat[k] = append(r.lat[k], w.lat[k]...)
		}
	}
	for k := range r.lat {
		slices.Sort(r.lat[k])
	}
	return r
}

// newWorkers builds the closed-loop workers of the timed rounds, one per
// connection, each with a filled ring. Their streams are seeded apart from
// the counted pass's. Issuing the same query twice is only observable by a
// result cache, so a stack without one gets a small ring, filled once, that
// the loops may wrap; a stack with one gets a ring no round can wrap,
// refilled from the stream before every round.
func (e *env) newWorkers() ([]*worker, error) {
	ring, fresh := e.cfg.size.ring, e.st.qc != nil
	if fresh {
		ring = e.cfg.size.freshRing
	}
	ws := make([]*worker, e.cfg.workers)
	for i := range ws {
		g, err := workload.New(e.cfg.workload, e.src, e.cfg.seed+1, i, len(ws))
		if err != nil {
			return nil, err
		}
		ws[i] = &worker{
			gen:    g,
			fresh:  fresh,
			ring:   make([]workload.Op, ring),
			ledger: make(map[uint32]geom.Segment),
			batch:  make([]proto.QueryMsg, 0, batchSize),
		}
		for k := range ws[i].lat {
			ws[i].lat[k] = make([]int64, 0, ring)
		}
		ws[i].refill()
	}
	return ws, nil
}

// pct returns the q-quantile of sorted samples (nearest rank), 0 if empty.
func pct(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// openResult is what the open-loop phase measured.
type openResult struct {
	rate        float64 // achieved operations/s
	lat, lag    []int64 // ns, sorted: from the intended start; send lateness
	backlogMax  int64
	ops, failed int64
}

// openLoop offers rate operations/s for d, split evenly over the workers,
// each on its own fixed schedule. Latency counts from the instant a request
// was due, so a stall is charged to every request it delayed; lag is how
// late the generator itself ran. This sandbox cannot pace sub-millisecond
// gaps (see the README), which is why the phase is reported and not gated.
func openLoop(c *client.Client, ws []*worker, rate float64, d time.Duration) openResult {
	gap := time.Duration(float64(len(ws)) / rate * float64(time.Second))
	for _, w := range ws {
		w.reset()
		if w.fresh {
			w.refill()
		}
	}
	type out struct {
		lat, lag []int64
		backlog  int64
	}
	outs := make([]out, len(ws))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func(w *worker, o *out) {
			defer wg.Done()
			for due := t0; due.Sub(t0) < d; due = due.Add(gap) {
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				op := w.next()
				a := issue(c, op)
				done := time.Now()
				o.lag = append(o.lag, int64(sent.Sub(due)))
				o.lat = append(o.lat, int64(done.Sub(due)))
				o.backlog = max(o.backlog, int64(done.Sub(due)/gap))
				w.ops++
				if a.err != nil {
					w.failed++
				} else if op.Kind == workload.Move {
					w.ledger[op.ID] = op.Seg()
				}
			}
		}(w, &outs[i])
	}
	wg.Wait()
	var r openResult
	for i, w := range ws {
		r.ops += w.ops
		r.failed += w.failed
		r.lat = append(r.lat, outs[i].lat...)
		r.lag = append(r.lag, outs[i].lag...)
		r.backlogMax = max(r.backlogMax, outs[i].backlog)
	}
	r.rate = float64(r.ops) / time.Since(t0).Seconds()
	slices.Sort(r.lat)
	slices.Sort(r.lag)
	return r
}

var calibSink uint64

// calibMops times a fixed hash loop and returns millions of iterations per
// second: a drift in it between two runs is the host's, not the program's.
func calibMops() float64 {
	const iters = 1 << 22
	h := fnv.New64a()
	var b [8]byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		b[0] = byte(i)
		h.Write(b[:])
	}
	calibSink = h.Sum64()
	return iters / time.Since(t0).Seconds() / 1e6
}

// timerNs is the cost of one empty span: two clock reads and a store.
func timerNs() float64 {
	const n = 1 << 16
	samples := make([]int64, n)
	for i := range samples {
		t0 := time.Now()
		samples[i] = int64(time.Since(t0))
	}
	slices.Sort(samples)
	return pct(samples, 0.5)
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
