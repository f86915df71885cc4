// diff.go compares two result files metric by metric against the bounds and
// directions BENCHMARK.json declares: ROADMAP item 1's benchdiff, kept with
// the benchmark it reads.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// readManifest reads BENCHMARK.json from the repository root, one level above
// the working directory bench/run.sh, `go run -C bench` and `go test` all run
// the program in.
func readManifest() (*manifest, error) {
	const path = "../BENCHMARK.json"
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// spread is the distance between the quartiles of a metric's rounds as a
// share of their median; 0 when it was not measured in rounds.
func spread(v *value) float64 {
	if len(v.Rounds) < 4 {
		return 0
	}
	s := slices.Clone(v.Rounds)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return ratio(q(0.75)-q(0.25), q(0.5))
}

// everyRoundBetter reports whether each round of b beats each round of a.
func everyRoundBetter(a, b *value, higher bool) bool {
	if len(a.Rounds) == 0 || len(b.Rounds) == 0 {
		return false
	}
	if higher {
		return slices.Min(b.Rounds) > slices.Max(a.Rounds)
	}
	return slices.Max(b.Rounds) < slices.Min(a.Rounds)
}

// verdict judges b against a for one end-to-end metric. worse is the change
// in the bad direction as a share of a.
func verdict(a, b *value, m manifestMetric) (worse float64, word string) {
	higher := m.Better == "higher"
	worse = ratio(b.Value-a.Value, a.Value)
	if higher {
		worse = -worse
	}
	bound := *m.Bound
	switch {
	case max(spread(a), spread(b)) > bound && !everyRoundBetter(a, b, higher):
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	case worse < -bound:
		return worse, "improved"
	}
	return worse, "within bound"
}

// diffFiles prints, per workload and metric, the relative change from file a
// to file b, judged against the metric's bound and direction.
func diffFiles(w io.Writer, pathA, pathB string) error {
	man, err := readManifest()
	if err != nil {
		return err
	}
	ra, err := readResults(pathA)
	if err != nil {
		return err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tverdict")
	regressed := 0
	for _, a := range ra {
		i := slices.IndexFunc(rb, func(b *result) bool { return b.Workload == a.Workload && b.Trace == a.Trace })
		if i < 0 {
			continue
		}
		b := rb[i]
		list := man.EndToEnd
		if a.Trace == 1 {
			list = man.PerLayer
		}
		for _, m := range list {
			va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
			if va == nil || vb == nil {
				continue
			}
			if m.Bound == nil { // a layer metric: shown, never judged
				if va.Value != vb.Value {
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t\t%s is better\n", a.Workload, m.Name, va.Value, vb.Value, m.Better)
				}
				continue
			}
			worse, word := verdict(va, vb, m)
			if word == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				a.Workload, m.Name, va.Value, vb.Value, worse*100, *m.Bound*100, word)
		}
		if a.Failed != b.Failed {
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\t\t\t%s\n", a.Workload, a.Failed, b.Failed, "must be 0")
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
