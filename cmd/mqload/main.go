// Command mqload is a closed-loop load generator for mqserve: N workers each
// issue the next query only after the previous answer arrives, so measured
// latency is uninflated by coordinated omission and QPS reflects the
// server's real completion rate at that concurrency.
//
// Usage:
//
//	mqload [flags]
//
// Flags:
//
//	-addr        server address (default 127.0.0.1:7070)
//	-dataset     pa | nyc — sizes the query area to the server's map (default pa)
//	-conns       concurrent closed-loop workers / pooled connections (default 32)
//	-duration    measured run length (default 10s)
//	-warmup      excluded ramp-up time (default 1s)
//	-mix         query mix, e.g. point=60,range=25,nn=15
//	-rangew      half-width in meters of range windows (default 1000)
//	-zipf        Zipf skew s (> 1): queries cluster around -hotspots centers
//	             sampled from the dataset's segments, rank-weighted k^-s —
//	             the workload the server's result cache (-qcache) is built
//	             for (0 = uniform; incompatible with -planner and -moving)
//	-hotspots    zipf mode: number of hotspot centers (default 64)
//	-seed        workload seed (default 1)
//	-batch       micro-batch size: each worker packs N queries into one
//	             QueryBatch wire exchange (default 1 = one frame per query;
//	             incompatible with -planner)
//	-planner     route queries through the partitioning planner against a
//	             shipped sub-index instead of always offloading
//	-shipw       planner mode: half-width in meters of the shipment window
//	             (default 5000)
//	-shipbudget  planner mode: shipment memory budget in bytes (default 4MB)
//	-fault       fault-injection profile applied to every connection: a
//	             preset (lossy, slow, stall, outage, flaky), a key=value
//	             list, or both — "lossy,drop=0.1" (see internal/faultlink)
//	-fallback    arm the circuit breaker and a full local index: when the
//	             link fails, queries are answered at the client (the paper's
//	             all-client scheme as a degraded mode)
//	-serverstats pull and print the server's metrics snapshot at the end;
//	             against a sharded server this adds the per-run shard report
//	             (mean fan-out, NN shards visited/pruned)
//	-router      the target is an mqrouter coordinator: append its fan-out,
//	             failover, and per-backend leg report (the workload itself
//	             is unchanged — the router speaks the same protocol)
//	-drift       migrating-hotspot workload: the Zipf hotspot cluster jumps
//	             to a new region of the map each phase — the pattern an
//	             adaptive server (mqserve -adaptive) chases by splitting hot
//	             shards; the report prints p50/p99 and the server's
//	             repartition events per phase (implies -zipf 1.5 if unset;
//	             incompatible with -planner, -batch, and -moving)
//	-phases      drift mode: hotspot phases across the run (default 4)
//	-moving      moving-objects workload: vehicles drive shortest-path
//	             routes on the road network derived from the dataset,
//	             each step a MsgMove write, interleaved with reads near
//	             the vehicle (requires a server started with -mutable;
//	             incompatible with -planner and -batch)
//	-vehicles    moving mode: vehicle count (default 64)
//	-readfrac    moving mode: mean reads issued per move (default 1.0)
//	-readback    moving mode: after every acked move, immediately range-read
//	             the vehicle's own position and count acked writes a read
//	             fails to return — the freshness check that catches a serving
//	             tier whose routing or caching lags its writes
//
// In moving mode the report splits writes from reads — write qps and
// latency, read latency, ack'd ownership — and adds the staleness evidence:
// how many writes fold into each epoch swap (from the acks' epoch
// progression) plus the server's own mutable_* gauges when -serverstats is
// set.
//
// Output: total queries, QPS, mean and p50/p95/p99 latency from a merged
// streaming histogram (internal/stats), plus error and retry counts, and a
// wire line — frames, bytes, and modeled NIC energy per query from the
// client's wire counters. With -batch > 1 the report adds a modeled
// batched-vs-unbatched NIC energy comparison. In planner mode the report
// breaks down per scheme (fully-client, server-ids, fully-server) with the
// predicted-vs-actual §4.1 cost ratios.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/faultlink"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mqload:", err)
		os.Exit(1)
	}
}

type mix struct {
	kinds   []string
	weights []int
	total   int
}

func parseMix(s string) (mix, error) {
	var m mix
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		switch name {
		case "point", "range", "nn":
		default:
			return m, fmt.Errorf("unknown query kind %q in mix", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad weight in %q", part)
		}
		m.kinds = append(m.kinds, name)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total <= 0 {
		return m, fmt.Errorf("mix has no positive weight")
	}
	return m, nil
}

func (m mix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.kinds[i]
		}
		n -= w
	}
	return m.kinds[len(m.kinds)-1]
}

func run(args []string) error {
	fs := flag.NewFlagSet("mqload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	dsName := fs.String("dataset", "pa", "dataset the server runs: pa | nyc")
	conns := fs.Int("conns", 32, "closed-loop workers / pooled connections")
	duration := fs.Duration("duration", 10*time.Second, "measured run length")
	warmup := fs.Duration("warmup", time.Second, "excluded ramp-up time")
	mixFlag := fs.String("mix", "point=60,range=25,nn=15", "query mix")
	rangeW := fs.Float64("rangew", 1000, "half-width of range windows (m)")
	zipfS := fs.Float64("zipf", 0, "Zipf skew s > 1 for hotspot reads (0 = uniform)")
	hotspotN := fs.Int("hotspots", 64, "zipf mode: hotspot count")
	seed := fs.Int64("seed", 1, "workload seed")
	batch := fs.Int("batch", 1, "queries per wire exchange (QueryBatch micro-batching)")
	planner := fs.Bool("planner", false, "route queries through the partitioning planner")
	shipW := fs.Float64("shipw", 5000, "planner: half-width of the shipment window (m)")
	shipBudget := fs.Int("shipbudget", 4<<20, "planner: shipment memory budget (bytes)")
	faultSpec := fs.String("fault", "", "fault-injection profile (preset and/or key=value list)")
	fallback := fs.Bool("fallback", false, "arm the breaker and answer queries locally when the link fails")
	serverStats := fs.Bool("serverstats", false, "print the server's metrics snapshot at the end")
	routerMode := fs.Bool("router", false, "target is an mqrouter: print its fan-out/failover report at the end")
	drift := fs.Bool("drift", false, "migrating-hotspot workload: the Zipf hotspot cluster jumps to a new region each phase")
	phases := fs.Int("phases", 4, "drift mode: hotspot phases across the run")
	moving := fs.Bool("moving", false, "moving-objects workload against a -mutable server")
	vehicles := fs.Int("vehicles", 64, "moving mode: vehicle count")
	readFrac := fs.Float64("readfrac", 1.0, "moving mode: mean reads per move")
	readback := fs.Bool("readback", false, "moving mode: read own position back after every acked move and count misses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *moving && (*planner || *batch > 1) {
		return fmt.Errorf("-moving is incompatible with -planner and -batch")
	}
	if *drift {
		if *moving || *planner || *batch > 1 {
			return fmt.Errorf("-drift is incompatible with -moving, -planner, and -batch")
		}
		if *zipfS == 0 {
			*zipfS = 1.5 // a drifting hotspot is a Zipf hotspot by definition
		}
		if *zipfS <= 1 {
			return fmt.Errorf("-drift needs zipf s > 1 (got %v)", *zipfS)
		}
		if *phases < 1 {
			return fmt.Errorf("-phases must be >= 1")
		}
		if *hotspotN < 2 {
			return fmt.Errorf("-hotspots must be >= 2 in drift mode")
		}
	}
	if *zipfS != 0 && !*drift {
		if *zipfS <= 1 {
			return fmt.Errorf("-zipf needs s > 1 (got %v)", *zipfS)
		}
		if *hotspotN < 1 {
			return fmt.Errorf("-hotspots must be >= 1")
		}
		if *moving || *planner {
			return fmt.Errorf("-zipf is incompatible with -moving and -planner")
		}
	}

	var extent geom.Rect
	var recordBytes int
	switch *dsName {
	case "pa":
		extent, recordBytes = dataset.PAConfig().Extent, dataset.PAConfig().RecordBytes
	case "nyc":
		extent, recordBytes = dataset.NYCConfig().Extent, dataset.NYCConfig().RecordBytes
	default:
		return fmt.Errorf("unknown dataset %q (want pa or nyc)", *dsName)
	}
	qmix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	if *batch < 1 || *batch > proto.MaxBatchQueries {
		return fmt.Errorf("-batch must be in [1, %d]", proto.MaxBatchQueries)
	}
	if *batch > 1 && *planner {
		return fmt.Errorf("-batch and -planner are mutually exclusive: the planner " +
			"decides per query where it runs, batching always offloads")
	}

	hub := obs.NewHub()
	cfg := client.Config{Addr: *addr, Conns: *conns, Obs: hub}

	// Fault injection: every connection this client dials goes through the
	// injector, so the measured run experiences the profile's drops, stalls,
	// resets, and outage windows.
	var inj *faultlink.Injector
	if *faultSpec != "" {
		prof, err := faultlink.ParseProfile(*faultSpec)
		if err != nil {
			return err
		}
		inj = faultlink.New(prof)
		cfg.Dial = inj.DialFunc(nil)
		fmt.Printf("mqload: fault injection on: %s\n", prof)
	}

	// Local fallback: rebuild the server's deterministic dataset and index at
	// the client (data present at client), arm the breaker, and degrade to
	// the all-client scheme whenever the link fails.
	if *fallback {
		var ds *dataset.Dataset
		if *dsName == "pa" {
			ds = dataset.PA()
		} else {
			ds = dataset.NYC()
		}
		tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			return fmt.Errorf("fallback index: %w", err)
		}
		pool, err := parallel.New(ds, tree, 0)
		if err != nil {
			return fmt.Errorf("fallback pool: %w", err)
		}
		cfg.Fallback = client.NewPoolFallback(pool)
		cfg.Breaker = client.BreakerConfig{Enabled: true}
		fmt.Printf("mqload: local fallback armed (%d records indexed, breaker on)\n", ds.Len())
	}

	c, err := client.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Probe(); err != nil {
		if inj == nil && !*fallback {
			return fmt.Errorf("server unreachable: %w", err)
		}
		// A faulted or fallback-armed run tolerates an unreachable server —
		// demonstrating that is the point.
		fmt.Printf("mqload: probe failed (%v) — continuing degraded\n", err)
	}

	if *drift {
		return runDrift(c, driftOpts{
			dsName:      *dsName,
			conns:       *conns,
			duration:    *duration,
			warmup:      *warmup,
			qmix:        qmix,
			rangeW:      *rangeW,
			zipfS:       *zipfS,
			hotspots:    *hotspotN,
			phases:      *phases,
			seed:        *seed,
			serverStats: *serverStats,
			routerMode:  *routerMode,
		})
	}

	if *moving {
		return runMoving(c, movingOpts{
			dsName:      *dsName,
			conns:       *conns,
			vehicles:    *vehicles,
			duration:    *duration,
			warmup:      *warmup,
			rangeW:      *rangeW,
			seed:        *seed,
			readFrac:    *readFrac,
			readback:    *readback,
			qmix:        qmix,
			serverStats: *serverStats,
			routerMode:  *routerMode,
		})
	}

	// Planner mode: ship a sub-index around the map center, then confine the
	// workload to the covered window so the §4.1 advisor — not missing
	// coverage — decides each query's scheme. One planner is shared by all
	// workers: the shipment is read-only after the fetch.
	var pl *client.Planner
	if *planner {
		pl = client.NewPlanner(c)
		center := extent.Center()
		window := geom.Rect{
			Min: geom.Point{X: center.X - *shipW, Y: center.Y - *shipW},
			Max: geom.Point{X: center.X + *shipW, Y: center.Y + *shipW},
		}
		if err := pl.FetchShipment(window, *shipBudget, recordBytes); err != nil {
			return fmt.Errorf("shipment: %w", err)
		}
		cov := pl.Shipment().Coverage
		fmt.Printf("mqload: planner mode, shipment covers %.1fx%.1f km (%d records)\n",
			cov.Width()/1000, cov.Height()/1000, pl.Shipment().Len())
		extent = cov
	}

	// Zipf hotspot mode: centers are sampled from the dataset's segment
	// midpoints (density-biased, like real junctions), and every query lands
	// near a rank-k^-s-weighted center with a small jitter — many clients
	// asking nearly the same question, the shape the server's result cache
	// turns into hits.
	var hotspots []geom.Point
	if *zipfS != 0 {
		var ds *dataset.Dataset
		if *dsName == "pa" {
			ds = dataset.PA()
		} else {
			ds = dataset.NYC()
		}
		hrng := rand.New(rand.NewSource(*seed))
		hotspots = make([]geom.Point, *hotspotN)
		for i := range hotspots {
			hotspots[i] = ds.Segments[hrng.Intn(ds.Len())].Midpoint()
		}
		fmt.Printf("mqload: zipf hotspot workload, s=%.2f over %d centers\n", *zipfS, *hotspotN)
	}

	var (
		measuring atomic.Bool
		stop      atomic.Bool
		errs      atomic.Uint64
		wg        sync.WaitGroup
	)
	if inj != nil {
		// Scripted outage windows are relative to the start of the workload,
		// not process start (probing and index builds above take real time).
		inj.ResetClock()
	}
	hists := make([]*stats.Histogram, *conns)
	for w := 0; w < *conns; w++ {
		hists[w] = stats.NewLatencyHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			h := hists[w]
			// hotJitter keeps a hotspot's queries inside a handful of the
			// cache's snapping cells (default pitch 512 map units).
			const hotJitter = 64.0
			var zipf *rand.Zipf
			if hotspots != nil {
				zipf = rand.NewZipf(rng, *zipfS, 1, uint64(len(hotspots)-1))
			}
			samplePt := func() geom.Point {
				if zipf == nil {
					return geom.Point{
						X: extent.Min.X + rng.Float64()*extent.Width(),
						Y: extent.Min.Y + rng.Float64()*extent.Height(),
					}
				}
				c := hotspots[zipf.Uint64()]
				return geom.Point{
					X: c.X + (rng.Float64()-0.5)*2*hotJitter,
					Y: c.Y + (rng.Float64()-0.5)*2*hotJitter,
				}
			}
			qs := make([]proto.QueryMsg, 0, *batch)
			for !stop.Load() {
				if *batch > 1 {
					// Micro-batched path: pack the mix into one QueryBatch
					// exchange. Every query in the batch experienced the
					// batch's round trip, so each records the full latency.
					qs = qs[:0]
					for len(qs) < *batch {
						pt := samplePt()
						switch qmix.pick(rng) {
						case "point":
							qs = append(qs, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt})
						case "range":
							qs = append(qs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: geom.Rect{
								Min: geom.Point{X: pt.X - *rangeW, Y: pt.Y - *rangeW},
								Max: geom.Point{X: pt.X + *rangeW, Y: pt.Y + *rangeW},
							}})
						case "nn":
							qs = append(qs, proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: pt})
						}
					}
					start := time.Now()
					rs, qerr := c.QueryBatch(qs)
					elapsed := time.Since(start)
					if !measuring.Load() {
						continue
					}
					if qerr != nil {
						errs.Add(uint64(len(qs)))
						continue
					}
					for _, r := range rs {
						if r.Err != nil {
							errs.Add(1)
						} else {
							h.Record(elapsed.Seconds())
						}
					}
					continue
				}
				pt := samplePt()
				var qerr error
				start := time.Now()
				switch qmix.pick(rng) {
				case "point":
					if pl != nil {
						_, qerr = pl.Execute(core.Point(pt))
					} else {
						_, qerr = c.PointIDs(pt, 0)
					}
				case "range":
					w := geom.Rect{
						Min: geom.Point{X: pt.X - *rangeW, Y: pt.Y - *rangeW},
						Max: geom.Point{X: pt.X + *rangeW, Y: pt.Y + *rangeW},
					}
					if pl != nil {
						// Keep the window inside coverage so the advisor,
						// not the coverage check, picks the scheme.
						_, qerr = pl.Execute(core.Range(w.Intersection(extent)))
					} else {
						_, qerr = c.RangeIDs(w)
					}
				case "nn":
					if pl != nil {
						_, qerr = pl.Execute(core.Nearest(pt))
					} else {
						_, qerr = c.Nearest(pt)
					}
				}
				elapsed := time.Since(start)
				if !measuring.Load() {
					continue
				}
				if qerr != nil {
					errs.Add(1)
					continue
				}
				h.Record(elapsed.Seconds())
			}
		}(w)
	}

	time.Sleep(*warmup)
	// Pre-run server snapshot: the shard report prices only this run's
	// queries, so it needs the counter baseline before measurement starts.
	var preShard obs.Snapshot
	if *serverStats || *routerMode {
		if msg, err := c.StatsSnapshot(); err == nil {
			preShard = obs.SnapshotFromMsg(msg)
		}
	}
	measuring.Store(true)
	start := time.Now()
	time.Sleep(*duration)
	measuring.Store(false)
	measured := time.Since(start)
	stop.Store(true)
	wg.Wait()

	total := stats.NewLatencyHistogram()
	for _, h := range hists {
		if err := total.Merge(h); err != nil {
			return err
		}
	}
	link := c.Link()
	fmt.Printf("mqload: %d workers, %v measured, mix %s\n", *conns, measured.Round(time.Millisecond), *mixFlag)
	fmt.Printf("  queries   %d (%.0f qps)\n", total.Count(), float64(total.Count())/measured.Seconds())
	fmt.Printf("  latency   mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
		ms(total.Mean()), ms(total.P(0.50)), ms(total.P(0.95)), ms(total.P(0.99)), ms(total.Max()))
	fmt.Printf("  errors    %d   retries %d\n", errs.Load(), c.Retries())
	fmt.Printf("  link      rtt %v, bandwidth %s\n", link.RTT.Round(time.Microsecond), mbps(link.BandwidthBps))
	printWireReport(c.WireStats(), link.BandwidthBps, *batch)
	if inj != nil || *fallback {
		printDegradedReport(c.Degraded(), inj)
	}

	if pl != nil {
		printSchemeReport(hub.Reg.Snapshot())
	}
	if *serverStats || *routerMode {
		msg, err := c.StatsSnapshot()
		if err != nil {
			return fmt.Errorf("server stats: %w", err)
		}
		snap := obs.SnapshotFromMsg(msg)
		if *routerMode {
			printRouterReport(preShard, snap)
		}
		if *serverStats {
			printShardReport(preShard, snap)
			printCacheReport(preShard, snap)
			printServerStats(snap, msg.UptimeMicros)
		}
	}
	return nil
}

// printRouterReport summarizes the coordinator's behavior over this run —
// counter deltas of the router_* metrics — when the target is an mqrouter
// (router_backends gauge present in its snapshot). The per-backend leg split
// is the read-spreading and failover evidence: during an outage the dead
// backend's legs stop while its replicas absorb the range.
func printRouterReport(pre, post obs.Snapshot) {
	backends := gaugeValue(post, "router_backends")
	if backends <= 0 {
		fmt.Println("  router    no router_* metrics in the snapshot (is the target an mqrouter?)")
		return
	}
	legErrs := counterDelta(pre, post, "router_leg_errors_total")
	failovers := counterDelta(pre, post, "router_failover_total")
	unroutable := counterDelta(pre, post, "router_unroutable_total")
	visited := counterDelta(pre, post, "router_nn_backends_visited_total")
	pruned := counterDelta(pre, post, "router_nn_backends_pruned_total")
	fmt.Printf("  router    %.0f backends, %.0f ranges; %.0f leg errors, %.0f failovers, %.0f unroutable\n",
		backends, gaugeValue(post, "router_ranges"), legErrs, failovers, unroutable)
	if visited+pruned > 0 {
		fmt.Printf("            nn legs: %.0f visited, %.0f pruned by the running bound\n", visited, pruned)
	}
	if batches := counterDelta(pre, post, "router_batches_total"); batches > 0 {
		legs := counterDelta(pre, post, "router_batch_legs_total")
		fmt.Printf("            batches: %.0f grouped (%.0f sub-queries), %.0f legs = %.2f legs/batch, %.0f fallbacks\n",
			batches, counterDelta(pre, post, "router_batch_queries_total"),
			legs, legs/batches, counterDelta(pre, post, "router_batch_fallback_total"))
	}
	if structural := counterDelta(pre, post, "router_refresh_structural_total"); structural > 0 {
		fmt.Printf("            refreshes: %.0f structural (backend repartitioned) of %.0f total\n",
			structural, counterDelta(pre, post, "router_refresh_total"))
	}
	for _, c := range post.Counters {
		name, label, ok := splitLabeled(c.Name, "router_backend_legs_total")
		if !ok {
			continue
		}
		errsName := obs.Name("router_backend_leg_errors_total", "backend", label)
		fmt.Printf("            backend %-24s %.0f legs, %.0f errors, healthy=%.0f\n",
			label, counterDelta(pre, post, name), counterDelta(pre, post, errsName),
			gaugeValue(post, obs.Name("router_backend_healthy", "backend", label)))
	}
}

// splitLabeled matches a labeled metric name of the form
// base{backend="label"} and returns its full name and label.
func splitLabeled(name, base string) (full, label string, ok bool) {
	rest, found := strings.CutPrefix(name, base+"{backend=\"")
	if !found {
		return "", "", false
	}
	label, found = strings.CutSuffix(rest, "\"}")
	if !found {
		return "", "", false
	}
	return name, label, true
}

// printWireReport prices the run's measured wire traffic with the Table 2
// NIC model: per-query frames, bytes, and modeled Joules (transfer at the
// measured bandwidth plus one sleep-exit wakeup per exchange). With batching
// it adds the counterfactual — the same bytes priced at one exchange per
// query — so the report shows exactly what the amortized wakeups bought.
func printWireReport(ws client.WireStats, bwBps float64, batch int) {
	if ws.Queries == 0 {
		return
	}
	if bwBps <= 0 {
		bwBps = 2e6 // the paper's base bandwidth when unmeasured
	}
	em := obs.DefaultEnergyModel()
	q := float64(ws.Queries)
	nicJ := em.NICExchangeJoules(int(ws.BytesTx), int(ws.BytesRx), int(ws.Exchanges), bwBps)
	fmt.Printf("  wire      %.2f frames/query, %.0f B/query, modeled NIC %.4f mJ/query (%d exchanges / %d queries)\n",
		float64(ws.FramesTx+ws.FramesRx)/q, float64(ws.BytesTx+ws.BytesRx)/q,
		nicJ/q*1e3, ws.Exchanges, ws.Queries)
	if batch > 1 {
		unbatched := em.NICExchangeJoules(int(ws.BytesTx), int(ws.BytesRx), int(ws.Queries), bwBps)
		saved := 0.0
		if unbatched > 0 {
			saved = (1 - nicJ/unbatched) * 100
		}
		fmt.Printf("  batching  %d queries/exchange: modeled NIC %.4f mJ/query vs %.4f unbatched (%.1f%% saved on wakeups)\n",
			batch, nicJ/q*1e3, unbatched/q*1e3, saved)
	}
}

// printDegradedReport renders the disconnection-tolerance accounting: the
// breaker's history, how many queries the local fallback absorbed, and the
// energy split — modeled client CPU Joules spent answering locally against
// modeled NIC Joules spent on remote exchanges — plus the injector's fault
// counts when a -fault profile was active.
func printDegradedReport(d client.DegradedStats, inj *faultlink.Injector) {
	fmt.Printf("  breaker   %s: %d trips, %d probes (%d failed)\n",
		d.Breaker, d.Trips, d.Probes, d.ProbeFailures)
	fmt.Printf("  fallback  %d queries answered locally (%d local failures), energy %.4f mJ local CPU vs %.4f mJ remote NIC\n",
		d.Fallbacks, d.FallbackErrors, d.FallbackJoules*1e3, d.RemoteNICJoules*1e3)
	if inj != nil {
		st := inj.Stats()
		fmt.Printf("  faults    %d drops, %d resets, %d stalls, %d outage failures, %d dials\n",
			st.Drops, st.Resets, st.Stalls, st.OutageFailures, st.Dials)
	}
}

// printSchemeReport breaks the run down per partitioning scheme: volume,
// latency, modeled energy, and the §4.1 predicted-vs-actual cost ratios.
func printSchemeReport(snap obs.Snapshot) {
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	hists := map[string]obs.HistValue{}
	for _, h := range snap.Hists {
		hists[h.Name] = h
	}
	fmt.Println("  scheme breakdown (predicted/actual: 1.0 = the model priced it perfectly)")
	for _, scheme := range []string{"fully-client", "server-ids", "fully-server"} {
		n := counters[obs.Name("client_plans_total", "scheme", scheme)]
		if n == 0 {
			continue
		}
		eh := hists[obs.Name("client_exec_seconds", "scheme", scheme)]
		cr := hists[obs.Name("client_plan_cycle_ratio", "scheme", scheme)]
		er := hists[obs.Name("client_plan_energy_ratio", "scheme", scheme)]
		fmt.Printf("    %-12s %7d queries  mean %s p95 %s  %.3f J  pred/act cycles %.2f energy %.2f\n",
			scheme, n, ms(eh.Mean), ms(eh.P95),
			gauges[obs.Name("client_energy_joules_total", "scheme", scheme)],
			cr.Mean, er.Mean)
	}
}

// printShardReport summarizes the server's shard-walk behavior over this
// run — counter deltas between the pre-measurement and final snapshots — when
// the server runs a sharded pool (shard_count gauge present). Fan-out is the
// mean number of shards a range/point query touched after MBR pruning;
// visited/pruned are the best-first NN scheduling outcomes.
func printShardReport(pre, post obs.Snapshot) {
	shards := gaugeValue(post, "shard_count")
	if shards <= 0 {
		return
	}
	queries := counterDelta(pre, post, "shard_inline_total")
	fanout := counterDelta(pre, post, "shard_fanout_shards_total")
	nn := counterDelta(pre, post, "shard_nn_total")
	visited := counterDelta(pre, post, "shard_nn_shards_visited_total")
	pruned := counterDelta(pre, post, "shard_nn_shards_pruned_total")

	fmt.Printf("  shards    %.0f shards\n", shards)
	if queries > 0 {
		fmt.Printf("            range/point: %.0f queries, mean fan-out %.2f shards\n",
			queries, fanout/queries)
	}
	if nn > 0 {
		fmt.Printf("            nn/k-nn:     %.0f queries, mean %.2f shards visited, %.2f pruned\n",
			nn, visited/nn, pruned/nn)
	}
}

// printCacheReport summarizes the server's result cache over this run —
// counter deltas of the qcache_* metrics — when the server was started with
// -qcache. A silent return means the cache is off or saw no traffic.
func printCacheReport(pre, post obs.Snapshot) {
	hits := counterDelta(pre, post, "qcache_hits_total")
	misses := counterDelta(pre, post, "qcache_misses_total")
	if hits+misses == 0 {
		return
	}
	fmt.Printf("  qcache    %.0f hits / %.0f misses (%.1f%% hit rate), %.0f invalidations, %.0f bypasses, %.2f J server compute saved\n",
		hits, misses, 100*hits/(hits+misses),
		counterDelta(pre, post, "qcache_invalidations_total"),
		counterDelta(pre, post, "qcache_bypass_total"),
		gaugeValue(post, "qcache_saved_joules"))
}

func gaugeValue(snap obs.Snapshot, name string) float64 {
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func counterDelta(pre, post obs.Snapshot, name string) float64 {
	var a, b uint64
	for _, c := range pre.Counters {
		if c.Name == name {
			a = c.Value
		}
	}
	for _, c := range post.Counters {
		if c.Name == name {
			b = c.Value
		}
	}
	if b < a {
		return 0
	}
	return float64(b - a)
}

// printServerStats renders the server's in-protocol snapshot.
func printServerStats(snap obs.Snapshot, uptimeMicros uint64) {
	fmt.Printf("  server stats (uptime %v)\n",
		(time.Duration(uptimeMicros) * time.Microsecond).Round(time.Second))
	for _, c := range snap.Counters {
		fmt.Printf("    %-48s %d\n", c.Name, c.Value)
	}
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	for _, h := range snap.Hists {
		if h.Count == 0 {
			continue
		}
		if strings.HasSuffix(h.Name, "_seconds") {
			fmt.Printf("    %-48s n=%d mean %s p95 %s p99 %s\n",
				h.Name, h.Count, ms(h.Mean), ms(h.P95), ms(h.P99))
		} else {
			// Count-valued histograms (e.g. shard_fanout): plain numbers.
			fmt.Printf("    %-48s n=%d mean %.2f p95 %.2f p99 %.2f\n",
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
