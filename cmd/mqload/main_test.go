package main

import (
	"bytes"
	"math"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/nic"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/stack"
)

// serveOn builds one stack and serves it on a loopback port.
func serveOn(t *testing.T, cfg interface{ Build() (*stack.Stack, error) }) string {
	t.Helper()
	st, err := cfg.Build()
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	t.Cleanup(st.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Server.Serve(lis)
	return lis.Addr().String()
}

// The report lines scripts/cluster_smoke.sh reads its verdicts from. One
// format for every workload: if one of these stops matching, the script's
// parsers have to move with it.
var (
	reQueries  = regexp.MustCompile(`(?m)^  queries   (\d+) `)
	reErrors   = regexp.MustCompile(`(?m)^  errors    (\d+) `)
	reReadback = regexp.MustCompile(`(?m)^  readback  (\d+) acked moves read back, (\d+) missed`)
	reRouter   = regexp.MustCompile(` (\d+) failovers, (\d+) unroutable`)
	reRefresh  = regexp.MustCompile(`refreshes: (\d+)`)
)

func field(t *testing.T, report string, re *regexp.Regexp, group int) int {
	t.Helper()
	m := re.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report has no line matching %v:\n%s", re, report)
	}
	n, err := strconv.Atoi(m[group])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEveryWorkloadRunsToOneReport drives each point source and issuer —
// and the combinations that used to be refused — through run() against the
// three kinds of in-process target mqload is pointed at: a server no
// workload writes to (which ships sub-indexes to the planner), one the
// moving workloads write to, and a router with live refresh over two
// Hilbert-partitioned backends.
// It checks the one report format.
func TestEveryWorkloadRunsToOneReport(t *testing.T) {
	ds := dataset.NYC()
	static := serveOn(t, stack.Server{Dataset: ds})
	updatable := serveOn(t, stack.Server{Dataset: ds})
	routed := serveOn(t, stack.Router{Dataset: ds, Refresh: 20 * time.Millisecond, Backends: []string{
		serveOn(t, stack.Server{Dataset: ds, Partition: "0/2", Replicas: 1}),
		serveOn(t, stack.Server{Dataset: ds, Partition: "1/2", Replicas: 1}),
	}})
	for _, tc := range []struct {
		name, addr, args string
		want             []string // substrings this workload's report must carry
	}{
		{"uniform", static, "", nil},
		{"zipf", static, "-zipf 1.5 -serverstats", []string{"server stats"}},
		{"batch", static, "-batch 8", []string{"  batching  8 queries/exchange"}},
		{"planner", static, "-planner", []string{"scheme breakdown"}},
		{"zipf planner", static, "-zipf 1.5 -planner", []string{"scheme breakdown"}},
		{"fallback idle", static, "-fallback", []string{"local fallback armed", "  fallback  0 queries answered locally"}},
		{"fallback dead link", "127.0.0.1:1", "-fallback", []string{"continuing degraded", "  breaker   open", "(0 local failures)"}},
		{"updatable zipf", updatable, "-zipf 1.5 -serverstats", []string{"  mutable   "}},
		{"updatable zipf batch", updatable, "-zipf 1.5 -batch 8", []string{"  batching  "}},
		{"moving readback", updatable, "-moving -readback -vehicles 8", []string{"  writes    ", "  reads     ", "  staleness ", "  acks      0 not-owned"}},
		{"moving batch", updatable, "-moving -batch 4 -vehicles 8", []string{"  writes    ", "  batching  "}},
		{"moving planner", updatable, "-moving -planner -vehicles 8", []string{"  writes    ", "scheme breakdown"}},
		{"routed uniform", routed, "", []string{"  router    2 backends"}},
		{"routed zipf batch", routed, "-zipf 1.5 -batch 8", []string{"batches: "}},
		{"routed moving readback", routed, "-moving -readback -vehicles 8", []string{"writes: "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(strings.Fields(tc.args), "-addr", tc.addr, "-dataset", "nyc",
				"-conns", "4", "-duration", "300ms", "-warmup", "50ms")
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("run %v: %v\n%s", args, err, out.String())
			}
			report := out.String()
			if n := field(t, report, reQueries, 1); n == 0 {
				t.Fatalf("no queries completed:\n%s", report)
			}
			if n := field(t, report, reErrors, 1); n != 0 {
				t.Fatalf("%d errors:\n%s", n, report)
			}
			for _, s := range tc.want {
				if !strings.Contains(report, s) {
					t.Errorf("report lacks %q:\n%s", s, report)
				}
			}
			if strings.Contains(tc.args, "-readback") {
				if field(t, report, reReadback, 1) == 0 || field(t, report, reReadback, 2) != 0 {
					t.Errorf("read-back ledger wants > 0 checked, 0 missed:\n%s", report)
				}
			}
			if tc.addr == routed {
				if field(t, report, reRouter, 1) != 0 || field(t, report, reRouter, 2) != 0 {
					t.Errorf("failovers or unroutable queries on a healthy cluster:\n%s", report)
				}
				field(t, report, reRefresh, 1)
			}
		})
	}
}

// TestRefusals: the two flag pairs that stay refused say why.
func TestRefusals(t *testing.T) {
	for args, reason := range map[string]string{
		"-moving -zipf 1.5": "one point source",
		"-batch 8 -planner": "one issuer",
	} {
		err := run(strings.Fields(args), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("run(%s) = %v, want a refusal naming %q", args, err, reason)
		}
	}
}

// TestWireLineSplitsByDirection: the wire line keeps its totals and adds the
// per-query uplink and downlink bytes and the wakeup, transmit and receive
// mJ, which sum to the total it prints.
func TestWireLineSplitsByDirection(t *testing.T) {
	ws := client.WireStats{Queries: 10, Exchanges: 10, FramesTx: 10, FramesRx: 10, BytesTx: 250, BytesRx: 1000}
	var out bytes.Buffer
	printWireReport(&out, ws, nic.BaseBandwidthBps, 1)
	re := regexp.MustCompile(`^  wire      2\.00 frames/query, 125 B/query, modeled NIC ([0-9.]+) mJ/query \(10 exchanges / 10 queries\); ` +
		`25\.0 B up, 100\.0 B down, wake ([0-9.]+) \+ Tx ([0-9.]+) \+ Rx ([0-9.]+) mJ\n$`)
	m := re.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("wire line %q does not match %v", out.String(), re)
	}
	var v [4]float64
	for i := range v {
		var err error
		if v[i], err = strconv.ParseFloat(m[i+1], 64); err != nil {
			t.Fatal(err)
		}
	}
	if sum := v[1] + v[2] + v[3]; math.Abs(sum-v[0]) > 2e-4 {
		t.Errorf("wake %v + Tx %v + Rx %v = %v mJ, the line's total is %v", v[1], v[2], v[3], sum, v[0])
	}
	if v[2] <= v[3] {
		t.Errorf("25 B sent cost %v mJ, 100 B received %v: the uplink should cost more", v[2], v[3])
	}
}
