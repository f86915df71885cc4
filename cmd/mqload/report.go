// report.go prints what a run measured: the client's side (one format for
// every workload), then the server's side priced as counter deltas between
// the pre-run snapshot and the one taken after the run.
package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"mobispatial/internal/faultlink"
	"mobispatial/internal/nic"
	"mobispatial/internal/obs"
	"mobispatial/internal/serve/client"
)

// printClientReport is the report every workload shares: totals, one line
// per series when there are several, errors, and the link and wire lines.
func printClientReport(out io.Writer, wl *workload, res result) {
	c, total := wl.c, newRecords(1)[0]
	for i := range res.series {
		total.merge(&res.series[i])
	}
	errs, secs := total.errs, res.measured.Seconds()
	fmt.Fprintf(out, "  queries   %d (%.0f qps)\n", total.hist.Count(), float64(total.hist.Count())/secs)
	fmt.Fprintf(out, "  latency   mean %s  p50 %s  p95 %s  p99 %s  max %s\n", ms(total.hist.Mean()),
		ms(total.hist.P(0.50)), ms(total.hist.P(0.95)), ms(total.hist.P(0.99)), ms(total.hist.Max()))
	if len(res.series) > 1 {
		for i, name := range wl.series {
			h := res.series[i].hist
			fmt.Fprintf(out, "  %-9s %d (%.0f qps)  mean %s  p50 %s  p95 %s  p99 %s, %d errors\n",
				name, h.Count(), float64(h.Count())/secs, ms(h.Mean()), ms(h.P(0.50)), ms(h.P(0.95)), ms(h.P(0.99)), res.series[i].errs)
		}
	}
	if wl.fleet != nil {
		errs += wl.fleet.rbErrs.Load() // a read-back that failed is a failed read
	}
	fmt.Fprintf(out, "  errors    %d   retries %d\n", errs, c.Retries())
	for i, name := range wl.series {
		if err := res.series[i].firstErr; err != nil {
			fmt.Fprintf(out, "            first error (%s): %v\n", name, err)
		}
	}
	if f := wl.fleet; f != nil {
		w := &res.series[seriesWrites]
		fmt.Fprintf(out, "  acks      %d not-owned\n", w.notOwned)
		if f.readback {
			fmt.Fprintf(out, "  readback  %d acked moves read back, %d missed, %d read-back errors\n",
				f.rbChecked.Load(), f.rbMissed.Load(), f.rbErrs.Load())
		}
		if w.epochBumps > 0 {
			fmt.Fprintf(out, "  staleness %d epoch swaps observed in acks — a write waits ~%.0f writes in the overlay before folding into the packed base\n",
				w.epochBumps, float64(w.hist.Count())/float64(w.epochBumps))
		} else {
			fmt.Fprintf(out, "  staleness no epoch swaps observed in acks (compactor idle or disabled)\n")
		}
	}
	link := c.Link()
	fmt.Fprintf(out, "  link      rtt %v, bandwidth %s\n", link.RTT.Round(time.Microsecond), mbps(link.BandwidthBps))
	printWireReport(out, c.WireStats(), link.BandwidthBps, wl.batch)
}

// printWireReport prices the run's measured wire traffic with the Table 2
// NIC model: per-query frames, bytes, and modeled Joules (transfer at the
// measured bandwidth plus one sleep-exit wakeup per exchange), then the same
// per query split by direction — uplink and downlink bytes, wakeup, transmit
// and receive mJ — since a sent byte costs the radio far more than a
// received one. With batching it adds the counterfactual — the same bytes
// priced at one exchange per query — so the report shows exactly what the
// amortized wakeups bought.
func printWireReport(out io.Writer, ws client.WireStats, bwBps float64, batch int) {
	if ws.Queries == 0 {
		return
	}
	if bwBps <= 0 {
		bwBps = nic.BaseBandwidthBps
	}
	em := obs.DefaultEnergyModel()
	q := float64(ws.Queries)
	wake, tx, rx := em.NICExchangeSplit(int(ws.BytesTx), int(ws.BytesRx), int(ws.Exchanges), bwBps)
	nicJ := wake + tx + rx
	fmt.Fprintf(out, "  wire      %.2f frames/query, %.0f B/query, modeled NIC %.4f mJ/query (%d exchanges / %d queries); %.1f B up, %.1f B down, wake %.4f + Tx %.4f + Rx %.4f mJ\n",
		float64(ws.FramesTx+ws.FramesRx)/q, float64(ws.BytesTx+ws.BytesRx)/q,
		nicJ/q*1e3, ws.Exchanges, ws.Queries,
		float64(ws.BytesTx)/q, float64(ws.BytesRx)/q, wake/q*1e3, tx/q*1e3, rx/q*1e3)
	if batch > 1 {
		unbatched := em.NICExchangeJoules(int(ws.BytesTx), int(ws.BytesRx), int(ws.Queries), bwBps)
		saved := 0.0
		if unbatched > 0 {
			saved = (1 - nicJ/unbatched) * 100
		}
		fmt.Fprintf(out, "  batching  %d queries/exchange: modeled NIC %.4f mJ/query vs %.4f unbatched (%.1f%% saved on wakeups)\n",
			batch, nicJ/q*1e3, unbatched/q*1e3, saved)
	}
}

// printDegradedReport renders the disconnection-tolerance accounting: the
// breaker's history, how many queries the local fallback absorbed, and the
// energy split — modeled client CPU Joules spent answering locally against
// modeled NIC Joules spent on remote exchanges — plus the injector's fault
// counts when a -fault profile was active.
func printDegradedReport(out io.Writer, d client.DegradedStats, inj *faultlink.Injector) {
	fmt.Fprintf(out, "  breaker   %s: %d trips, %d probes (%d failed)\n",
		d.Breaker, d.Trips, d.Probes, d.ProbeFailures)
	fmt.Fprintf(out, "  fallback  %d queries answered locally (%d local failures), energy %.4f mJ local CPU vs %.4f mJ remote NIC\n",
		d.Fallbacks, d.FallbackErrors, d.FallbackJoules*1e3, d.RemoteNICJoules*1e3)
	if inj != nil {
		st := inj.Stats()
		fmt.Fprintf(out, "  faults    %d drops, %d resets, %d stalls, %d outage failures, %d dials\n",
			st.Drops, st.Resets, st.Stalls, st.OutageFailures, st.Dials)
	}
}

// printSchemeReport breaks the measured window down per partitioning
// scheme: volume and charged energy as the client's counter and gauge
// deltas between pre and post, its snapshots at the window's edges. Latency
// and the §4.1 predicted-vs-charged cost ratios (mean and median) come from
// histograms, which hold the whole run, warm-up and drain included, and are
// labeled so. A scheme only coverage or freshness forced has no prediction
// to score.
func printSchemeReport(out io.Writer, pre, post obs.Snapshot) {
	hists := map[string]obs.HistValue{}
	for _, h := range post.Hists {
		hists[h.Name] = h
	}
	fmt.Fprintln(out, "  scheme breakdown (predicted/actual: 1.0 = the model priced it perfectly)")
	for _, scheme := range []string{"fully-client", "server-ids", "fully-server"} {
		plans, joules := obs.Name("client_plans_total", "scheme", scheme), obs.Name("client_energy_joules_total", "scheme", scheme)
		n := post.Counter(plans) - pre.Counter(plans)
		if n == 0 {
			continue
		}
		eh := hists[obs.Name("client_exec_seconds", "scheme", scheme)]
		cr := hists[obs.Name("client_plan_cycle_ratio", "scheme", scheme)]
		er := hists[obs.Name("client_plan_energy_ratio", "scheme", scheme)]
		pred := "no prediction"
		if cr.Count+er.Count > 0 {
			pred = fmt.Sprintf("pred/act cycles %.2f p50 %.2f, energy %.2f p50 %.2f", cr.Mean, cr.P50, er.Mean, er.P50)
		}
		fmt.Fprintf(out, "    %-12s %7d queries  %.3f J  whole run: mean %s p95 %s  %s\n",
			scheme, n, post.Gauge(joules)-pre.Gauge(joules), ms(eh.Mean), ms(eh.P95), pred)
	}
}

// printServerReport prints the server's side of the run. The router report
// needs no flag: the pre-run snapshot says whether the target is an mqrouter.
// Everything else is -serverstats, and only then is a failed pull an error.
func printServerReport(out io.Writer, res result, serverStats bool) error {
	pre, post := res.pre, res.post
	if err := errors.Join(pre.err, post.err); err != nil {
		if serverStats {
			return fmt.Errorf("server stats: %w", err)
		}
		return nil
	}
	printRouterReport(out, pre, post)
	if !serverStats {
		return nil
	}
	printShardReport(out, post)
	printCacheReport(out, pre, post)
	printMutableReport(out, pre, post)
	printServerStats(out, post)
	return nil
}

// delta is a counter's growth between two snapshots (0 across a restart).
func delta(pre, post serverSnap, name string) float64 {
	a, b := pre.Counter(name), post.Counter(name)
	if b < a {
		return 0
	}
	return float64(b - a)
}

// printRouterReport summarizes the coordinator's behavior over this run —
// counter deltas of the router_* metrics — when the target is an mqrouter
// (router_backends gauge present in its snapshot). The per-backend leg split
// is the read-spreading and failover evidence: during an outage the dead
// backend's legs stop while its replicas absorb the range.
func printRouterReport(out io.Writer, pre, post serverSnap) {
	backends := post.Gauge("router_backends")
	if backends <= 0 {
		return
	}
	d := func(name string) float64 { return delta(pre, post, name) }
	fmt.Fprintf(out, "  router    %.0f backends, %.0f ranges; %.0f leg errors, %.0f failovers, %.0f unroutable\n",
		backends, post.Gauge("router_ranges"), d("router_leg_errors_total"), d("router_failover_total"), d("router_unroutable_total"))
	if visited, pruned := d("router_nn_backends_visited_total"), d("router_nn_backends_pruned_total"); visited+pruned > 0 {
		fmt.Fprintf(out, "            nn legs: %.0f answered; %.0f backends never contacted (their ranges answered by another holder or beyond the bound)\n", visited, pruned)
	}
	if batches := d("router_batches_total"); batches > 0 {
		legs := d("router_batch_legs_total")
		fmt.Fprintf(out, "            batches: %.0f grouped (%.0f sub-queries), %.0f backend legs (k-NN included) = %.2f legs/batch\n",
			batches, d("router_batch_queries_total"), legs, legs/batches)
	}
	if refreshes := d("router_refresh_total"); refreshes > 0 {
		fmt.Fprintf(out, "            refreshes: %.0f\n", refreshes)
	}
	if writes := d("router_writes_total"); writes > 0 {
		fmt.Fprintf(out, "            writes: %.0f routed over %.0f legs; %.0f leg errors, %.0f diverged, %.0f unroutable\n",
			writes, d("router_write_legs_total"), d("router_write_leg_errors_total"),
			d("router_write_divergence_total"), d("router_write_unroutable_total"))
	}
	post.EachGauge("router_backend_healthy", "backend", func(addr string, healthy float64) {
		fmt.Fprintf(out, "            backend %-24s %.0f legs, %.0f errors, healthy=%.0f\n", addr,
			d(obs.Name("router_backend_legs_total", "backend", addr)),
			d(obs.Name("router_backend_leg_errors_total", "backend", addr)), healthy)
	})
}

// printShardReport names the server's shard count (shardCount).
func printShardReport(out io.Writer, post serverSnap) {
	if shards := shardCount(post.Snapshot); shards > 0 {
		fmt.Fprintf(out, "  shards    %d shards\n", shards)
	}
}

// shardCount is a server's shard count: one per mutable_epoch gauge its pool
// registers for each of its shards; 0 for a router, which holds none.
func shardCount(s obs.Snapshot) int {
	n := 0
	s.EachGauge("mutable_epoch", "shard", func(string, float64) { n++ })
	return n
}

// printCacheReport summarizes the server's result cache over this run when
// the server was started with -qcache. A silent return means the cache is
// off or saw no traffic.
func printCacheReport(out io.Writer, pre, post serverSnap) {
	hits := delta(pre, post, "qcache_hits_total")
	misses := delta(pre, post, "qcache_misses_total")
	if hits+misses == 0 {
		return
	}
	fmt.Fprintf(out, "  qcache    %.0f hits / %.0f misses (%.1f%% hit rate), %.0f invalidations, %.0f bypasses, %.2f s of server execution saved\n",
		hits, misses, 100*hits/(hits+misses),
		delta(pre, post, "qcache_invalidations_total"), delta(pre, post, "qcache_bypass_total"),
		post.Gauge("qcache_saved_seconds"))
}

// printMutableReport summarizes the server's update subsystem over this run:
// write volume by kind, compactions, and the per-shard epoch/pending/
// staleness gauges folded to their extremes. Silent when the snapshot has no
// mutable_* gauges (a router).
func printMutableReport(out io.Writer, pre, post serverSnap) {
	shards := 0
	var maxEpoch, pending, maxStale float64
	post.EachGauge("mutable_epoch", "shard", func(_ string, v float64) {
		shards++
		maxEpoch = max(maxEpoch, v)
	})
	if shards == 0 {
		return
	}
	post.EachGauge("mutable_pending", "shard", func(_ string, v float64) { pending += v })
	post.EachGauge("mutable_staleness_seconds", "shard", func(_ string, v float64) { maxStale = max(maxStale, v) })
	fmt.Fprintf(out, "  mutable   %d updatable shards; this run applied %.0f inserts, %.0f deletes, %.0f moves over %.0f compactions\n",
		shards, delta(pre, post, "mutable_inserts_total"), delta(pre, post, "mutable_deletes_total"),
		delta(pre, post, "mutable_moves_total"), delta(pre, post, "mutable_compactions_total"))
	fmt.Fprintf(out, "            max epoch %.0f, %.0f updates pending in overlays, max staleness %.3fs\n",
		maxEpoch, pending, maxStale)
}

// printServerStats renders the server's in-protocol snapshot (rows arrive
// sorted by name).
func printServerStats(out io.Writer, snap serverSnap) {
	fmt.Fprintf(out, "  server stats (uptime %v)\n",
		(time.Duration(snap.uptimeMicros) * time.Microsecond).Round(time.Second))
	for _, c := range snap.Counters {
		fmt.Fprintf(out, "    %-48s %d\n", c.Name, c.Value)
	}
	for _, h := range snap.Hists {
		if h.Count == 0 {
			continue
		}
		if strings.HasSuffix(h.Name, "_seconds") {
			fmt.Fprintf(out, "    %-48s n=%d mean %s p95 %s p99 %s\n",
				h.Name, h.Count, ms(h.Mean), ms(h.P95), ms(h.P99))
		} else {
			// Count-valued histograms (e.g. router_fanout): plain numbers.
			fmt.Fprintf(out, "    %-48s n=%d mean %.2f p95 %.2f p99 %.2f\n",
				h.Name, h.Count, h.Mean, h.P95, h.P99)
		}
	}
}

func ms(sec float64) string { return fmt.Sprintf("%.2fms", sec*1e3) }

func mbps(bps float64) string {
	if bps <= 0 {
		return "unmeasured"
	}
	return fmt.Sprintf("%.1f Mbps", bps/1e6)
}
