// drive.go is the closed loop itself: the one worker loop, the measuring and
// stop flags, the per-worker records, and the warmup → pre-run server
// snapshot → measure → merge sequence every workload runs through.
package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/obs"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/stats"
)

// record is one series' ledger: the latency of what completed, what failed
// and why first, and (writes of a moving run) what the acks said.
type record struct {
	hist       *stats.Histogram
	errs       uint64
	firstErr   error
	notOwned   uint64
	epochBumps uint64
}

func newRecords(n int) []record {
	rs := make([]record, n)
	for i := range rs {
		rs[i].hist = stats.NewLatencyHistogram()
	}
	return rs
}

func (r *record) add(o outcome) {
	for i := 0; i < o.ok; i++ {
		r.hist.Record(o.took.Seconds())
	}
	r.errs += uint64(o.failed)
	if r.firstErr == nil {
		r.firstErr = o.err
	}
	if o.notOwned {
		r.notOwned++
	}
	if o.epochBump {
		r.epochBumps++
	}
}

func (r *record) merge(o *record) {
	// Every histogram here comes from NewLatencyHistogram, so the layouts
	// match and Merge cannot fail.
	_ = r.hist.Merge(o.hist)
	r.errs += o.errs
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.notOwned += o.notOwned
	r.epochBumps += o.epochBumps
}

// serverSnap is one pull of the server's metrics; err says why there is
// none.
type serverSnap struct {
	obs.Snapshot
	uptimeMicros uint64
	err          error
}

func pullSnap(c *client.Client) serverSnap {
	msg, err := c.StatsSnapshot()
	if err != nil {
		return serverSnap{err: err}
	}
	return serverSnap{Snapshot: obs.SnapshotFromMsg(msg), uptimeMicros: msg.UptimeMicros}
}

// result is what one run measured.
type result struct {
	series   []record // merged across workers, indexed like workload.series
	measured time.Duration
	// pre is the server before measurement started — the counter baseline
	// every server-side report prices this run against — and post the
	// server after the run.
	pre, post serverSnap
}

// drive runs the workload closed-loop on `conns` workers: warm up, snapshot
// the server, measure for `duration`, stop, snapshot again, merge.
func drive(wl *workload, conns int, warmup, duration time.Duration) result {
	var (
		measuring atomic.Bool
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	perWorker := make([][]record, conns)
	for w := range perWorker {
		perWorker[w] = newRecords(len(wl.series))
		step := wl.newWorker(w)
		if step == nil {
			continue
		}
		wg.Add(1)
		go func(recs []record) {
			defer wg.Done()
			for !stop.Load() {
				series, o := step()
				if measuring.Load() {
					recs[series].add(o)
				}
			}
		}(perWorker[w])
	}

	time.Sleep(warmup)
	res := result{series: newRecords(len(wl.series)), pre: pullSnap(wl.c)}
	measuring.Store(true)
	start := time.Now()
	time.Sleep(duration)
	measuring.Store(false)
	res.measured = time.Since(start)
	stop.Store(true)
	wg.Wait()
	res.post = pullSnap(wl.c)

	for _, recs := range perWorker {
		for i := range recs {
			res.series[i].merge(&recs[i])
		}
	}
	return res
}
