// Command mqload is a closed-loop load generator for mqserve and mqrouter: N
// workers each issue the next query only after the previous answer arrives,
// so QPS is the server's real completion rate at that concurrency. The
// latency it prints is subject to coordinated omission: a worker waiting on
// a slow answer issues nothing meanwhile, so a stall is recorded once, not
// once per query that would have arrived during it — tails read low. (The
// open-loop figures live in bench/.)
//
// One driver runs every workload. A workload is a point source — where the
// next query lands — composed with an issuer — how it reaches the server:
//
//	point source   default  uniform over the map (the shipment window with -planner)
//	               -zipf    Zipf-ranked hotspot centres sampled from the segments
//	               -moving  the position a vehicle just moved to; the move is a write
//	issuer         default  one wire exchange per query
//	               -batch   N queries per QueryBatch exchange
//	               -planner the §4.1 partitioning planner over a shipped sub-index
//
// Any source runs with any issuer. Two pairs are refused because they are
// meaningless, not unimplemented: -moving with -zipf (a run has one point
// source — a vehicle's reads land where the vehicle is), and -batch with
// -planner (a run has one issuer — the planner decides per query where it
// runs, a batch always offloads).
//
// Usage:
//
//	mqload [flags]
//
// Flags:
//
//	-addr        server address (default 127.0.0.1:7070)
//	-dataset     pa | nyc — the map the server runs (default pa)
//	-conns       concurrent closed-loop workers / pooled connections (default 32)
//	-duration    measured run length (default 10s)
//	-warmup      excluded ramp-up time (default 1s)
//	-mix         query mix, e.g. point=60,range=25,nn=15
//	-rangew      half-width in meters of range windows (default 1000)
//	-seed        workload seed (default 1)
//	-zipf        Zipf skew s (> 1): queries cluster around -hotspots centres,
//	             rank-weighted k^-s — the workload the server's result cache
//	             (-qcache) is built for (0 = uniform)
//	-hotspots    zipf: number of hotspot centres (default 64)
//	-moving      moving objects: vehicles drive shortest-path routes on the
//	             road network derived from the dataset, each step a MsgMove
//	             write, interleaved with reads near the vehicle (every
//	             mqserve takes writes, and so does a router over them)
//	-vehicles    moving: vehicle count (default 64)
//	-readfrac    moving: mean reads issued per move (default 1.0)
//	-readback    moving: after every acked move, immediately range-read the
//	             vehicle's own position and count acked writes the read fails
//	             to return — the freshness check that catches a serving tier
//	             whose routing or caching lags its writes
//	-batch       queries per wire exchange (default 1; at most 256)
//	-planner     route queries through the partitioning planner against a
//	             shipped sub-index instead of always offloading; a covered
//	             query runs at the client only while the shipment is provably
//	             fresh (the server unwritten as of a reply at most 1 s old,
//	             and no write of this run acked) — otherwise it is planned
//	             fully-server, like an uncovered one
//	-shipw       planner: half-width in meters of the shipment window
//	             (default 5000)
//	-shipbudget  planner: shipment memory budget in bytes (default 4MB)
//	-fault       fault-injection profile applied to every connection: a
//	             preset (lossy, slow, stall, outage, flaky), a key=value
//	             list, or both — "lossy,drop=0.1" (see internal/faultlink)
//	-fallback    arm the circuit breaker and hold the whole map at the
//	             client as a shipment: when the link fails, queries are
//	             answered locally (the paper's all-client scheme as a
//	             degraded mode, reported as fallback-local). With -planner
//	             the fetched shipment replaces it, so degraded coverage is
//	             the shipment window — where every planner query lands
//	-serverstats append the server's side of the run: shard count, result
//	             cache (hit rate and the seconds of server execution the hits
//	             saved), update subsystem, and its full metrics snapshot
//
// Output, one format for every workload: total queries and QPS, mean and
// p50/p95/p99 latency from a merged streaming histogram (internal/stats),
// one line per series when the run has more than one (writes and reads of a
// moving run), errors with the first error
// text, retries, and a wire line — frames, bytes, and modeled NIC energy per
// query from the client's wire counters. A moving run adds ack ownership,
// the staleness evidence (how many writes fold into each epoch swap, from
// the acks' epoch progression) and the read-back ledger; -batch adds the
// modeled batched-vs-unbatched NIC energy; -planner the per-scheme breakdown
// with the predicted-vs-charged §4.1 cost ratios (mean and p50), both sides
// priced from one cycle price list (scheme.Prices) and one power table
// (energy.ClientModel): the prediction from estimated work, the charge from
// the counted walk and the frames that moved. When the target turns out
// to be an mqrouter (its snapshot carries router_backends) the fan-out,
// failover, and per-backend leg report follows.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/faultlink"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mqload:", err)
		os.Exit(1)
	}
}

// mix is the weighted choice of query kinds.
type mix struct {
	kinds   []*queryKind
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
		kind, ok := queryKinds[name]
		if !ok {
			return m, fmt.Errorf("unknown query kind %q in mix", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad weight in %q", part)
		}
		m.kinds = append(m.kinds, kind)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total <= 0 {
		return m, fmt.Errorf("mix has no positive weight")
	}
	return m, nil
}

func (m mix) pick(rng *rand.Rand) *queryKind {
	n := rng.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.kinds[i]
		}
		n -= w
	}
	return m.kinds[len(m.kinds)-1]
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mqload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	dsName := fs.String("dataset", "pa", "dataset the server runs: pa | nyc")
	conns := fs.Int("conns", 32, "closed-loop workers / pooled connections")
	duration := fs.Duration("duration", 10*time.Second, "measured run length")
	warmup := fs.Duration("warmup", time.Second, "excluded ramp-up time")
	mixFlag := fs.String("mix", "point=60,range=25,nn=15", "query mix")
	rangeW := fs.Float64("rangew", 1000, "half-width of range windows (m)")
	seed := fs.Int64("seed", 1, "workload seed")
	zipfS := fs.Float64("zipf", 0, "Zipf skew s > 1 for hotspot reads (0 = uniform)")
	hotspotN := fs.Int("hotspots", 64, "zipf: hotspot count")
	moving := fs.Bool("moving", false, "vehicles move (writes) and read near themselves; needs an updatable server")
	vehicles := fs.Int("vehicles", 64, "moving: vehicle count")
	readFrac := fs.Float64("readfrac", 1.0, "moving: mean reads per move")
	readback := fs.Bool("readback", false, "moving: read own position back after every acked move and count misses")
	batch := fs.Int("batch", 1, "queries per wire exchange (QueryBatch micro-batching)")
	planner := fs.Bool("planner", false, "route queries through the partitioning planner")
	shipW := fs.Float64("shipw", 5000, "planner: half-width of the shipment window (m)")
	shipBudget := fs.Int("shipbudget", 4<<20, "planner: shipment memory budget (bytes)")
	faultSpec := fs.String("fault", "", "fault-injection profile (preset and/or key=value list)")
	fallback := fs.Bool("fallback", false, "arm the breaker and answer queries locally when the link fails")
	serverStats := fs.Bool("serverstats", false, "append the server's side of the run and its metrics snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *moving && *zipfS != 0:
		return fmt.Errorf("-moving with -zipf: a run has one point source, and a vehicle's reads land where the vehicle is")
	case *batch > 1 && *planner:
		return fmt.Errorf("-batch with -planner: a run has one issuer — the planner decides per query where it runs, a batch always offloads")
	case *batch < 1 || *batch > proto.MaxBatchQueries:
		return fmt.Errorf("-batch must be in [1, %d]", proto.MaxBatchQueries)
	case *zipfS != 0 && *zipfS <= 1:
		return fmt.Errorf("-zipf needs s > 1 (got %v)", *zipfS)
	case *zipfS != 0 && *hotspotN < 1:
		return fmt.Errorf("-hotspots must be >= 1")
	}
	qmix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	ds, err := dataset.ByName(*dsName)
	if err != nil {
		return err
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
		fmt.Fprintf(out, "mqload: fault injection on: %s\n", prof)
	}

	// Local fallback: hold the server's deterministic dataset at the client
	// as a whole-map shipment (data present at client), arm the breaker, and
	// degrade to the all-client scheme whenever the link fails. Built here,
	// the shipment carries no epoch: it can stand in for a dead link, never
	// be chosen over a live one.
	if *fallback {
		recs := make([]proto.Record, ds.Len())
		for i, seg := range ds.Segments {
			recs[i] = proto.Record{ID: uint32(i), Seg: seg}
		}
		inf := math.Inf(1)
		ship, err := client.NewShipment(&proto.ShipmentMsg{
			Coverage: geom.Rect{Min: geom.Point{X: -inf, Y: -inf}, Max: geom.Point{X: inf, Y: inf}},
			Records:  recs,
		}, ds.RecordBytes)
		if err != nil {
			return fmt.Errorf("fallback index: %w", err)
		}
		cfg.Shipment = ship
		cfg.Breaker = client.BreakerConfig{Enabled: true}
		fmt.Fprintf(out, "mqload: local fallback armed (%d records indexed, breaker on)\n", ds.Len())
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
		fmt.Fprintf(out, "mqload: probe failed (%v) — continuing degraded\n", err)
	}

	wl := &workload{c: c, ds: ds, mix: qmix, rangeW: *rangeW, batch: *batch, seed: *seed,
		extent: ds.Extent, series: []string{"queries"}}
	if *planner {
		if err := wl.shipPlanner(out, *shipW, *shipBudget); err != nil {
			return err
		}
	}
	switch {
	case *moving:
		err = wl.placeFleet(out, *vehicles, *conns, *readFrac, *readback)
	case *zipfS != 0:
		wl.zipfCentres(out, *zipfS, *hotspotN)
	}
	if err != nil {
		return err
	}

	if inj != nil {
		// Scripted outage windows are relative to the start of the workload,
		// not process start (probing and index builds above take real time).
		inj.ResetClock()
	}
	res := drive(wl, hub.Reg, *conns, *warmup, *duration)

	fmt.Fprintf(out, "mqload: %d workers, %v measured, mix %s\n", *conns, res.measured.Round(time.Millisecond), *mixFlag)
	printClientReport(out, wl, res)
	if inj != nil || *fallback {
		printDegradedReport(out, c.Degraded(), inj)
	}
	if wl.planner != nil {
		printSchemeReport(out, res.clientPre, res.clientPost)
	}
	return printServerReport(out, res, *serverStats)
}
