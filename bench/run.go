// run.go is the untraced run: timed set-ups, the counted pass, and the
// closed-loop rounds every end-to-end metric comes from.
package main

import (
	"fmt"
	"runtime"
	"time"

	"mobispatial/bench/workload"
)

// sizing is how much work one run does. The driver and a full run use
// defaultSizing; the smoke test shrinks it.
type sizing struct {
	setups     int           // timed set-ups per run; setup_s is their median
	round      time.Duration // one timed round: an unbatched loop, then a batched one
	countedOps int           // operations of the counted (and traced) pass
	warmOps    int           // operations issued before the counted pass counts
	warmup     time.Duration
	ring       int // operations per worker, wrapped (stacks without a result cache)
	freshRing  int // operations per worker, refilled every round (stacks with one)
	pings      int // round trips behind serve.ping_ns and the calibration probes
	plannerOps int
}

var defaultSizing = sizing{
	setups: 9, round: time.Second, countedOps: 20000, warmOps: 2000,
	warmup: time.Second, ring: 1 << 15, freshRing: 1 << 17, pings: 2000, plannerOps: 2000,
}

var smokeSizing = sizing{
	setups: 1, round: 400 * time.Millisecond, countedOps: 500, warmOps: 50,
	warmup: 50 * time.Millisecond, ring: 1 << 12, freshRing: 1 << 14, pings: 100, plannerOps: 100,
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	workers  int
	size     sizing
}

// The share of a round spent unbatched; the rest is the batched loop.
const unbatchedShare = 0.6

// env is what a run keeps around its stack: the generator input, the
// oracle, and the benchmark's own account of the moving objects.
type env struct {
	cfg    runConfig
	src    *workload.Source
	st     *stack
	oracle *oracle
	// counted is the single-threaded stream of the counted pass; place is
	// where it starts the vehicles (moving only).
	counted *workload.Gen
	place   []workload.Op
	// stackHeapMB is the live heap the last set-up added.
	stackHeapMB float64
}

// setUp builds the workload's stack, places the vehicles, and waits for the
// first answered probe. The returned duration is the benchmark's setup_s
// sample: everything a user waits for between starting the commands and the
// first answer.
func (e *env) setUp() (*stack, time.Duration, error) {
	runtime.GC() // every set-up starts from a collected heap
	t0 := time.Now()
	st, err := buildStack(e.cfg.workload, e.cfg.workers)
	if err != nil {
		return nil, 0, err
	}
	for i := range e.place {
		if _, err := st.cli.Insert(e.place[i].ID, e.place[i].Seg()); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("placing vehicle %d: %w", e.place[i].ID, err)
		}
	}
	if _, err := st.cli.Ping(0); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first probe: %w", err)
	}
	return st, time.Since(t0), nil
}

// newEnv prepares the generator input and the oracle, then sets the stack
// up cfg.size.setups times, keeping the last one. It returns the set-up
// samples in seconds, each as measured and scaled to the CPU reference taken
// on either side of it (see hostref.go).
func newEnv(cfg runConfig) (*env, scaledRounds, error) {
	e := &env{cfg: cfg}
	var setups scaledRounds
	ds := newDataset()
	var err error
	if e.src, err = workload.NewSource(cfg.workload, ds); err != nil {
		return nil, setups, err
	}
	if e.counted, err = workload.New(cfg.workload, e.src, cfg.seed, 0, 1); err != nil {
		return nil, setups, err
	}
	e.place = e.counted.Place()
	refBuf := make([]float64, cpuRefLen)
	base := heapMB() // the benchmark's own dataset and road network
	for i := 0; i < cfg.size.setups; i++ {
		if e.st != nil {
			e.st.close()
		}
		r0 := cpuRef(refBuf)
		var d time.Duration
		if e.st, d, err = e.setUp(); err != nil {
			return nil, setups, err
		}
		r1 := cpuRef(refBuf)
		setups.add(d.Seconds(), 2*float64(cpuRefNominal)/float64(r0+r1))
	}
	e.stackHeapMB = heapMB() - base
	runtime.KeepAlive(refBuf) // it is in base, so it stays in the heap until here
	if e.oracle, err = newOracleFor(ds, e.place); err != nil {
		e.st.close()
		return nil, setups, err
	}
	return e, setups, nil
}

// heapMB is the live heap after a collection. Two cycles, because what a
// sync.Pool held survives the first one in its victim cache.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// scaledRounds collects a timing metric round by round: what the round saw,
// and that value scaled to the host reference's nominal rate.
type scaledRounds struct{ raw, scaled []float64 }

func (s *scaledRounds) add(v, factor float64) {
	s.raw = append(s.raw, v)
	s.scaled = append(s.scaled, v*factor)
}

// runUntraced measures every end-to-end metric of one workload.
func runUntraced(cfg runConfig) (*result, error) {
	res := newResult(cfg, 0)
	e, setups, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer e.st.close()
	res.setScaled("setup_s", setups)
	res.set("heap_mb", e.stackHeapMB)

	// The counted pass comes first: single-threaded over a fixed prefix of
	// the stream from a freshly built stack, so its counts depend on the
	// seed alone.
	cp, err := e.countedPass(nil)
	if err != nil {
		return nil, err
	}
	res.Attempted += cp.ops
	res.Failed += cp.failed
	res.set("allocs_per_query", cp.allocsPerOp())
	res.set("wire_bytes_per_query", cp.wire.bytesPerQuery())
	res.set("nic_mj_per_query", cp.wire.nicMilliJoulesPerQuery())

	ws, err := e.newWorkers()
	if err != nil {
		return nil, err
	}
	c := e.st.cli
	runRound(c, ws, cfg.size.warmup/2, (*worker).unbatched)
	runRound(c, ws, cfg.size.warmup/2, (*worker).batched)

	ref, err := newHostRef(cfg.workers)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Rounds are a second long so that each one spans several garbage
	// collections; the run is as many of them as fit in cfg.seconds. Each
	// timed loop sits between two slices of the host reference, and what it
	// measured is scaled to the reference's nominal rate (see hostref.go).
	rounds := max(1, int(cfg.seconds/cfg.size.round.Seconds()+0.5))
	loops := cfg.size.round - 3*refSlice
	uDur := time.Duration(float64(loops) * unbatchedShare)
	var qps, qpsB, p50, p95, cpu scaledRounds
	var refs []float64
	n := 0
	for i := 0; i < rounds; i++ {
		r0, err := ref.rate(refSlice)
		if err != nil {
			return nil, err
		}
		u := runRound(c, ws, uDur, (*worker).unbatched)
		r1, err := ref.rate(refSlice)
		if err != nil {
			return nil, err
		}
		b := runRound(c, ws, loops-uDur, (*worker).batched)
		r2, err := ref.rate(refSlice)
		if err != nil {
			return nil, err
		}
		// slow is how much slower than nominal the host ran around each loop.
		slowU, slowB := refSlowdown((r0+r1)/2), refSlowdown((r1+r2)/2)
		res.Attempted += u.ops + b.ops
		res.Failed += u.failed + b.failed
		reads := u.reads()
		n += len(reads)
		qps.add(u.qps(), slowU)
		qpsB.add(b.qps(), slowB)
		p50.add(pct(reads, 0.50)/1e3, 1/slowU)
		p95.add(pct(reads, 0.95)/1e3, 1/slowU)
		cpu.add(u.cpuSeconds/float64(u.ops)*1e6, 1/slowU)
		refs = append(refs, (r0+r1+r2)/3)
	}
	res.setScaled("qps", qps)
	res.setScaled("qps_batched", qpsB)
	res.setScaled("lat_p50_us", p50)
	res.setScaled("lat_p95_us", p95)
	res.setScaled("cpu_us_per_query", cpu)
	res.Metrics["lat_p50_us"].N = n
	res.Metrics["lat_p95_us"].N = n
	res.HostRef = refs

	res.Failed += e.finalSweep(ws)
	return res, nil
}
