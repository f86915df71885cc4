// Command mqtop is a live terminal view of a running mqserve: it polls the
// server's metrics over the query protocol itself (MsgStatsReq/MsgStats on
// a plain client connection — no HTTP endpoint required) and renders
// counters, rates, and latency histograms top-style.
//
// Usage:
//
//	mqtop [flags]
//
// Flags:
//
//	-addr      server address (default 127.0.0.1:7070)
//	-interval  refresh interval (default 2s)
//	-n         number of refreshes, 0 = until interrupted (default 0)
//
// Rates (qps, bytes/s) are deltas between consecutive snapshots; the first
// frame shows totals only. A failed poll does not exit: mqtop's own client
// runs a circuit breaker, the header flips to UNREACHABLE with the breaker
// state, and polling resumes when the server comes back.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"mobispatial/internal/obs"
	"mobispatial/internal/serve/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mqtop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mqtop", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// mqtop's own connection rides the breaker so a dead server costs one
	// fast failure per refresh, not a full retry storm; polling continues and
	// the header reports the link state until the server returns.
	c, err := client.New(client.Config{Addr: *addr, Conns: 1,
		RequestTimeout: 2 * time.Second, MaxRetries: 1,
		Breaker: client.BreakerConfig{Enabled: true, ProbeInterval: *interval}})
	if err != nil {
		return err
	}
	defer c.Close()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	var prev obs.Snapshot
	var prevAt time.Time
	for i := 0; ; i++ {
		msg, err := c.StatsSnapshot()
		if *count != 1 {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		if err != nil {
			fmt.Printf("mqtop — %s  UNREACHABLE (breaker %s)  %s\n  %v\n",
				*addr, c.BreakerState(), time.Now().Format("15:04:05"), err)
		} else {
			now := time.Now()
			snap := obs.SnapshotFromMsg(msg)
			render(os.Stdout, *addr, c, msg.UptimeMicros, snap, prev, now.Sub(prevAt), i > 0)
			prev, prevAt = snap, now
		}

		if *count > 0 && i+1 >= *count {
			return nil
		}
		select {
		case <-ticker.C:
		case <-sigc:
			return nil
		}
	}
}

// render draws one frame. haveDelta enables the rate column once a previous
// snapshot exists.
func render(w io.Writer, addr string, c *client.Client, uptimeMicros uint64, snap, prev obs.Snapshot, dt time.Duration, haveDelta bool) {
	link := c.Link()
	// A server's shards (shardCount) and a router's router_backends go in
	// the header so one glance says which tier is running. Unknown metric
	// names — a newer server's snapshot — still render generically below.
	sharding := ""
	if n := shardCount(snap); n > 0 {
		sharding += fmt.Sprintf("  shards %d", n)
	}
	if v := snap.Gauge("router_backends"); v > 0 {
		sharding += fmt.Sprintf("  router %.0f backends", v)
		if rg := snap.Gauge("router_ranges"); rg > 0 {
			sharding += fmt.Sprintf("/%.0f ranges", rg)
		}
	}
	fmt.Fprintf(w, "mqtop — %s  up %v  breaker %s  rtt %v%s  %s\n", addr,
		(time.Duration(uptimeMicros) * time.Microsecond).Round(time.Second),
		c.BreakerState(), link.RTT.Round(time.Microsecond), sharding,
		time.Now().Format("15:04:05"))
	// An updatable server exports per-shard mutable_* gauges; aggregate
	// them into one update-subsystem line. Older servers export none and
	// the line is simply absent — no version negotiation needed.
	if line := mutableLine(snap); line != "" {
		fmt.Fprintln(w, line)
	}
	// A caching server exports qcache_* counters; older servers (or -qcache
	// off) export none and the line is absent — same graceful degradation.
	if line := cacheLine(snap, prev, dt, haveDelta); line != "" {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)

	prevCounters := map[string]uint64{}
	for _, c := range prev.Counters {
		prevCounters[c.Name] = c.Value
	}
	fmt.Fprintf(w, "%-44s %14s %12s\n", "counter", "total", "per second")
	for _, c := range snap.Counters {
		rate := "-"
		if haveDelta && dt > 0 {
			rate = fmt.Sprintf("%.1f", float64(c.Value-prevCounters[c.Name])/dt.Seconds())
		}
		fmt.Fprintf(w, "%-44s %14d %12s\n", c.Name, c.Value, rate)
	}

	if len(snap.Gauges) > 0 {
		fmt.Fprintf(w, "\n%-44s %14s\n", "gauge", "value")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "%-44s %14.4g\n", g.Name, g.Value)
		}
	}

	hists := append([]obs.HistValue(nil), snap.Hists...)
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	header := false
	for _, h := range hists {
		if h.Count == 0 {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\n%-44s %10s %9s %9s %9s %9s\n",
				"histogram", "count", "mean", "p50", "p95", "p99")
			header = true
		}
		fmt.Fprintf(w, "%-44s %10d %9s %9s %9s %9s\n",
			trimName(h.Name), h.Count, histVal(h.Name, h.Mean), histVal(h.Name, h.P50),
			histVal(h.Name, h.P95), histVal(h.Name, h.P99))
	}
}

// shardCount is a server's shard count: one per mutable_epoch gauge its pool
// registers for each of its shards; 0 for a router, which holds none.
func shardCount(s obs.Snapshot) int {
	n := 0
	s.EachGauge("mutable_epoch", "shard", func(string, float64) { n++ })
	return n
}

// mutableLine folds the per-shard mutable_epoch / mutable_pending /
// mutable_staleness_seconds gauges into one summary line, or "" when the
// server exports none (not updatable, or predates the update subsystem).
func mutableLine(snap obs.Snapshot) string {
	shards := 0
	var maxEpoch, pending, maxStale float64
	snap.EachGauge("mutable_epoch", "shard", func(_ string, v float64) {
		shards++
		maxEpoch = max(maxEpoch, v)
	})
	snap.EachGauge("mutable_pending", "shard", func(_ string, v float64) { pending += v })
	snap.EachGauge("mutable_staleness_seconds", "shard", func(_ string, v float64) { maxStale = max(maxStale, v) })
	if shards == 0 {
		return ""
	}
	return fmt.Sprintf("mutable — %d shards  max epoch %.0f  pending %.0f  max staleness %s",
		shards, maxEpoch, pending, ms(maxStale))
}

// cacheLine folds the qcache_* counters into one result-cache summary line —
// hits, misses, hit rate, and invalidations over the last refresh interval —
// or "" when the server exports none (cache off, or a server predating the
// result cache). The first frame has no baseline and shows run totals.
func cacheLine(snap, prev obs.Snapshot, dt time.Duration, haveDelta bool) string {
	cur := map[string]uint64{}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "qcache_") {
			cur[c.Name] = c.Value
		}
	}
	if len(cur) == 0 {
		return ""
	}
	old := map[string]uint64{}
	if haveDelta {
		for _, c := range prev.Counters {
			old[c.Name] = c.Value
		}
	}
	delta := func(name string) uint64 {
		v := cur[name]
		if o := old[name]; haveDelta && o <= v {
			return v - o
		}
		return v
	}
	hits, misses := delta("qcache_hits_total"), delta("qcache_misses_total")
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	window := "total"
	if haveDelta {
		window = "last " + dt.Round(time.Second).String()
	}
	return fmt.Sprintf("qcache — %d hits  %d misses  %.1f%% hit rate  %d invalidations  (%s)",
		hits, misses, rate, delta("qcache_invalidations_total"), window)
}

// histVal formats one histogram summary cell. Only names ending in _seconds
// are durations; anything else — router legs per query and
// whatever future servers export — renders as a plain number instead of
// being misread as a latency.
func histVal(name string, v float64) string {
	if strings.HasSuffix(name, "_seconds") {
		return ms(v)
	}
	return fmt.Sprintf("%.2f", v)
}

// trimName shortens long labeled names to keep the table aligned.
func trimName(name string) string {
	if len(name) <= 44 {
		return name
	}
	return name[:41] + "..."
}

func ms(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	}
}
