package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mobispatial/bench/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram holds BENCHMARK.json and the program's metric
// tables together: same names, same units, same order, and every workload
// the manifest declares is one the program runs.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		got  []manifestMetric
		want []metric
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", tc.kind, len(tc.got), len(tc.want))
		}
		for i, m := range tc.got {
			if m.Name != tc.want[i].name || m.Unit != tc.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					tc.kind, i, m.Name, m.Unit, tc.want[i].name, tc.want[i].unit)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", tc.kind, m.Name)
			}
			if (m.Bound != nil) != (tc.kind == "end_to_end") {
				t.Errorf("%s: %s: only end-to-end metrics carry a bound", tc.kind, m.Name)
			}
		}
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workload.Names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, workload.Names)
	}
}

// TestSmoke runs every workload in both modes at the smoke sizing. It is
// about the plumbing, not the numbers: every declared metric is emitted
// under its declared unit and is finite, every answer checks out, the driver
// line parses, and a result compared with itself is within every bound. A
// change to any layer's API that the benchmark calls breaks this test, not
// the next performance change.
func TestSmoke(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	cfg := runConfig{seed: 1, seconds: 0.4, workers: 2, size: smokeSizing}
	var all []*result
	for _, w := range workload.Names {
		cfg.workload = w
		for trace, declared := range [][]manifestMetric{man.EndToEnd, man.PerLayer} {
			res, err := runOne(cfg, trace, out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			all = append(all, res)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d operations failed", w, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v := res.Metrics[m.Name]
				switch {
				case v == nil:
					t.Errorf("%s: %s is declared but not emitted", w, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s is %v", w, m.Name, v.Value)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, m.Name, v.Value)
				}
			}
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatalf("%s: driver line: %v", w, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: malformed driver line %s", w, trace, res.driverLine())
			}
		}
	}

	path := filepath.Join(out, "result.json")
	if err := writeJSON(out, "result.json", all); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := diffFiles(&buf, path, path); err != nil {
		t.Fatalf("a result differs from itself: %v\n%s", err, buf.String())
	}
	if n := strings.Count(buf.String(), "within bound"); n != len(workload.Names)*len(man.EndToEnd) {
		t.Errorf("self-diff judged %d metrics within bound, want %d:\n%s", n, len(workload.Names)*len(man.EndToEnd), buf.String())
	}
}

// TestVerdict pins the words -diff prints.
func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := manifestMetric{Name: "lat_p50_us", Better: "lower", Bound: &bound}
	higherM := manifestMetric{Name: "qps", Better: "higher", Bound: &bound}
	steady := func(v float64) *value { return &value{Value: v, Rounds: []float64{v, v, v, v}} }
	noisy := func(v float64) *value { return &value{Value: v, Rounds: []float64{v * 0.7, v * 0.9, v * 1.1, v * 1.3}} }
	for _, tc := range []struct {
		a, b *value
		m    manifestMetric
		want string
	}{
		{steady(100), steady(105), lower, "within bound"},
		{steady(100), steady(120), lower, "regressed"},
		{steady(100), steady(80), lower, "improved"},
		{steady(100), steady(80), higherM, "regressed"},
		{steady(100), steady(120), higherM, "improved"},
		{noisy(100), steady(120), lower, "unresolved"},
		{noisy(100), steady(60), lower, "improved"}, // every round of b beats every round of a
	} {
		if _, got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.m.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}
