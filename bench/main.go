// Command bench is the repository's benchmark: four seeded workloads driven
// over real loopback TCP against serving stacks built in-process exactly as
// cmd/mqserve and cmd/mqrouter build them. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload static --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                      # all workloads, both modes
//	bash bench/run.sh -diff A.json B.json  # compare two result files
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"mobispatial/bench/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: static | hotspot | moving | cluster (\"\" = all, both modes)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics and the span file")
	smoke := fs.Bool("smoke", false, "tiny sizing (well under 1 s per workload): checks the plumbing, not the numbers")
	diff := fs.Bool("diff", false, "compare two result files: bench -diff A.json B.json")
	out := fs.String("out", "out", "directory for the result JSON and the span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs two result files")
		}
		return diffFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	// The load generator and the stack share the process, so the worker
	// count and GOMAXPROCS are one setting: min(nproc, 4).
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	cfg := runConfig{seed: *seed, seconds: *seconds, workers: workers, size: defaultSizing}
	if *smoke {
		cfg.size, cfg.seconds = smokeSizing, min(cfg.seconds, 0.4)
	}

	if *name != "" {
		if !slices.Contains(workload.Names, *name) {
			return fmt.Errorf("unknown workload %q (want one of %v)", *name, workload.Names)
		}
		cfg.workload = *name
		res, err := runOne(cfg, *trace, *out)
		if err != nil {
			return err
		}
		res.print(os.Stdout)
		if err := writeJSON(*out, fmt.Sprintf("%s.trace%d.json", cfg.workload, *trace), []*result{res}); err != nil {
			return err
		}
		fmt.Println(res.driverLine())
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.Failed, res.Attempted)
		}
		return nil
	}

	var all []*result
	var failed int64
	for _, w := range workload.Names {
		cfg.workload = w
		for tr := 0; tr <= 1; tr++ {
			res, err := runOne(cfg, tr, *out)
			if err != nil {
				return err
			}
			res.print(os.Stdout)
			all = append(all, res)
			failed += res.Failed
		}
	}
	if err := writeJSON(*out, "result.json", all); err != nil {
		return err
	}
	fmt.Printf("wrote %s/result.json\n", *out)
	if failed > 0 {
		return fmt.Errorf("fail_ratio > 0: %d operations failed", failed)
	}
	return nil
}

// runOne runs one workload in one mode and validates what it measured.
func runOne(cfg runConfig, trace int, outDir string) (*result, error) {
	var res *result
	var err error
	if trace == 1 {
		res, err = runTraced(cfg, outDir)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.finish()
	return res, res.check()
}
