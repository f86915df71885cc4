// result.go is the benchmark's one output schema: the metric names with their
// units, the per-run result written as JSON, and the printed table.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"mobispatial/internal/stats"
)

// metric is a declared metric name with its unit. BENCHMARK.json declares
// the same names; bench_test.go holds the two lists together.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system would see. Every workload
// emits every one of them, and none can be zero.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"qps", "ops/s"},
	{"qps_batched", "queries/s"},
	{"lat_p50_us", "us"},
	{"lat_p95_us", "us"},
	{"cpu_us_per_query", "us"},
	{"allocs_per_query", "count"},
	{"wire_bytes_per_query", "B"},
	{"nic_mj_per_query", "mJ"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers; the prefix is the module. A
// layer that is not on a workload's path reports 0 there.
var perLayer = []metric{
	{"dataset.generate_ms", "ms"},
	{"rtree.build_ms", "ms"},
	{"rtree.range_ns", "ns"},
	{"rtree.point_ns", "ns"},
	{"rtree.nn_ns", "ns"},
	{"rtree.nodes_per_query", "count"},
	{"rtree.candidates_per_result", "ratio"},

	{"parallel.range_ns", "ns"},
	{"parallel.point_ns", "ns"},
	{"parallel.nn_ns", "ns"},
	{"shard.range_ns", "ns"},
	{"shard.point_ns", "ns"},
	{"shard.knn_ns", "ns"},
	{"shard.fanout_per_query", "count"},
	{"shard.nn_pruned_ratio", "ratio"},
	{"mutable.range_clean_ns", "ns"},
	{"mutable.point_clean_ns", "ns"},
	{"mutable.nn_clean_ns", "ns"},
	{"mutable.range_overlay_ns", "ns"},
	{"mutable.move_ns", "ns"},
	{"mutable.segof_ns", "ns"},
	{"mutable.compact_ms", "ms"},
	{"mutable.compactions", "count"},
	{"mutable.pending_max", "count"},
	{"mutable.staleness_max_s", "s"},
	{"mutable.not_owned", "count"},

	{"qcache.hit_ratio", "ratio"},
	{"qcache.get_hit_ns", "ns"},
	{"qcache.get_miss_ns", "ns"},
	{"qcache.put_ns", "ns"},
	{"qcache.entries", "count"},
	{"qcache.evictions", "count"},
	{"qcache.invalidations", "count"},
	{"qcache.store_races", "count"},

	{"proto.encode_req_ns", "ns"},
	{"proto.decode_req_ns", "ns"},
	{"proto.encode_reply_ns", "ns"},
	{"proto.decode_reply_ns", "ns"},
	{"proto.frames_per_query", "count"},
	{"proto.bytes_per_query", "B"},
	{"proto.allocs_per_frame", "count"},

	{"serve.ping_ns", "ns"},
	{"serve.residual_ns", "ns"},
	{"serve.unexplained_ns", "ns"},
	{"serve.exec_p50_us", "us"},
	{"serve.admit_wait_p99_us", "us"},
	{"serve.frames_per_write", "ratio"},
	{"serve.overloads", "count"},
	{"serve.deadlines", "count"},
	{"serve.errors", "count"},

	{"client.roundtrip_p50_ns", "ns"},
	{"client.lat_point_p50_us", "us"},
	{"client.lat_range_p50_us", "us"},
	{"client.lat_nn_p50_us", "us"},
	{"client.lat_p99_us", "us"},
	{"client.lat_p999_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.retries", "count"},
	{"client.frames_per_query_batched", "count"},
	{"client.nic_mj_per_query_batched", "mJ"},

	{"router.range_ns", "ns"},
	{"router.point_ns", "ns"},
	{"router.knn_ns", "ns"},
	{"router.hop_ns", "ns"},
	{"router.legs_per_query", "count"},
	{"router.nn_pruned_ratio", "ratio"},
	{"router.batch_legs_per_batch", "count"},
	{"router.failovers", "count"},
	{"router.unroutable", "count"},

	{"planner.plan_ns", "ns"},
	{"planner.local_ns", "ns"},
	{"planner.local_mj_per_query", "mJ"},
	{"planner.offload_mj_per_query", "mJ"},

	{"loadgen.open_rate_qps", "ops/s"},
	{"loadgen.open_p50_us", "us"},
	{"loadgen.open_p99_us", "us"},
	{"loadgen.open_lag_p99_us", "us"},
	{"loadgen.open_backlog_max", "count"},
	{"loadgen.echo_rtt_ns", "ns"},
	{"loadgen.calib_mops", "Mops/s"},
	{"loadgen.timer_ns", "ns"},
	{"loadgen.trace_overhead_ns", "ns"},
	{"loadgen.gc_cycles", "count"},
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// value is one measured metric: the reported value (the median of the
// rounds, when it was measured in rounds), every round's own value, and the
// number of samples behind it.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	// Raw is what each round saw before it was scaled to the host
	// reference's nominal rate (timing metrics of the untraced run only).
	Raw []float64 `json:"raw_rounds,omitempty"`
	N   int       `json:"n,omitempty"`
}

// host is what a result records about where it ran.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

// result is one run of one workload: traced (per-layer metrics) or not
// (end-to-end metrics).
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workers   int               `json:"workers"`
	Host      host              `json:"host"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Metrics   map[string]*value `json:"metrics"`
	// HostRef is the host reference around every round of an untraced run,
	// in echo round trips/s.
	HostRef []float64 `json:"host_ref_rps,omitempty"`
	// Notes explain values that need it (which rungs the residual
	// subtracted, say).
	Notes map[string]string `json:"notes,omitempty"`
}

func newResult(cfg runConfig, trace int) *result {
	return &result{
		Workload: cfg.workload, Trace: trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Workers: cfg.workers, Host: hostFacts(), Metrics: map[string]*value{}, Notes: map[string]string{},
	}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = &value{Value: v, Unit: unitOf(name)}
}

// setRounds reports the median of the rounds and keeps every round.
func (r *result) setRounds(name string, rounds []float64) {
	r.Metrics[name] = &value{Value: stats.Summarize(rounds).Median, Unit: unitOf(name), Rounds: rounds}
}

// setScaled reports the median of the scaled rounds and keeps both series.
func (r *result) setScaled(name string, s scaledRounds) {
	r.setRounds(name, s.scaled)
	r.Metrics[name].Raw = s.raw
}

// finish reports 0 for every declared metric the run did not measure (a
// layer the workload's path does not touch) and derives the fail ratio.
func (r *result) finish() {
	list := endToEnd
	if r.Trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
}

// check reports a metric that is not a finite number.
func (r *result) check() error {
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s/%s is %v", r.Workload, name, v.Value)
		}
	}
	return nil
}

// driverLine is the last line of standard output the benchmark contract
// asks for.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	list, kind := endToEnd, "end-to-end"
	if r.Trace == 1 {
		list, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "== %s: %s metrics (seed %d, %d workers, %.0f s, %d attempted, %d failed)\n",
		r.Workload, kind, r.Seed, r.Workers, r.Seconds, r.Attempted, r.Failed)
	if len(r.HostRef) > 0 {
		fmt.Fprintf(w, "  host reference %.0f echo round trips/s (median of the rounds); timings are scaled to %.0f\n",
			stats.Summarize(r.HostRef).Median, refNominal)
	}
	for _, m := range list {
		v := r.Metrics[m.name]
		line := fmt.Sprintf("  %-34s %14.4f %-9s", m.name, v.Value, v.Unit)
		if len(v.Raw) > 0 {
			line += fmt.Sprintf(" unscaled %.4f", stats.Summarize(v.Raw).Median)
		}
		if len(v.Rounds) > 1 {
			line += fmt.Sprintf(" rounds %s", fmtRounds(v.Rounds))
		}
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func fmtRounds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// writeJSON stores v under the output directory.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
