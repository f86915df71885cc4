// drive.go is the closed loop itself: the one worker loop, the measuring and
// stop flags, the window's edges, the per-worker records, and the warmup →
// pre-run snapshots → measure → merge sequence every workload runs through.
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
	// server after the run. clientPre and clientPost are the client's
	// registry at the two edges of the measured window.
	pre, post             serverSnap
	clientPre, clientPost obs.Snapshot
}

// drive runs the workload closed-loop on `conns` workers: warm up, snapshot
// the server, open the measured window, measure for `duration`, close it,
// stop, snapshot the server again, merge. Each window edge is taken with
// every worker between steps and snapshots the client's registry reg, so the
// client counters' growth across the window belongs to exactly the steps
// the window records; an edge therefore waits out the steps in flight.
func drive(wl *workload, reg *obs.Registry, conns int, warmup, duration time.Duration) result {
	var (
		// measuring is written only by edge, under every worker's lock,
		// and read by a worker under its own.
		measuring bool
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	perWorker := make([][]record, conns)
	inStep := make([]sync.Mutex, conns) // a worker holds its own across a step
	for w := range perWorker {
		perWorker[w] = newRecords(len(wl.series))
		step := wl.newWorker(w)
		if step == nil {
			continue
		}
		wg.Add(1)
		go func(recs []record, mu *sync.Mutex) {
			defer wg.Done()
			for !stop.Load() {
				mu.Lock()
				series, o := step()
				if measuring {
					recs[series].add(o)
				}
				mu.Unlock()
			}
		}(perWorker[w], &inStep[w])
	}
	edge := func(on bool) obs.Snapshot {
		for i := range inStep {
			inStep[i].Lock()
			defer inStep[i].Unlock()
		}
		measuring = on
		return reg.Snapshot()
	}

	time.Sleep(warmup)
	res := result{series: newRecords(len(wl.series)), pre: pullSnap(wl.c)}
	res.clientPre = edge(true)
	start := time.Now()
	time.Sleep(duration)
	res.clientPost = edge(false)
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
