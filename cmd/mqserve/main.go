// Command mqserve runs the networked spatial-query server: the repository's
// simulated "server" machine made real — a TCP service answering point,
// range, and NN queries against packed R-trees (each query runs on the
// goroutine that admitted it; -inflight is the concurrency control), and
// shipping budgeted sub-indexes to memory-limited clients.
//
// Usage:
//
//	mqserve [flags]
//
// Flags:
//
//	-addr       listen address (default :7070)
//	-dataset    pa | nyc (default pa)
//	-shards     spatial shards of the frozen engine: N > 0 = N Hilbert runs,
//	            one packed R-tree each, a query walking only the shards its
//	            window or point touches; 0 = one shard over the master tree
//	            (the one shipments are carved from), or with -partition the
//	            engine's default count over the held ranges
//	-inflight   admission-control cap on concurrent requests (0 = 4x
//	            GOMAXPROCS)
//	-obs        observability HTTP address serving /metrics (Prometheus),
//	            /traces (JSON spans), and /debug/pprof ("" = disabled)
//	-partition  i/N: run as cluster backend i of N, indexing only the
//	            Hilbert key ranges it holds (every backend derives the
//	            identical partition from the shared deterministic dataset)
//	-replicas   R-way replication under rotation placement (needs
//	            -partition, 1 <= R <= N; backend i also holds ranges
//	            i-1..i-R+1 mod N)
//	-mutable    updatable pool: accepts live MsgMove/MsgDelete (a move is
//	            the one upsert, an object's first write included),
//	            overlaying a list of writes on the packed base and folding it
//	            in with epoch-swapped compactions (monolithic or with
//	            -partition; -shards sets the monolithic shard count, and is
//	            refused with -partition, where the pool keeps one shard per
//	            held range for its life)
//	-qcache     result-cache budget in MB (0 = caching off): hotspot query
//	            results are cached under cell-snapped keys and invalidated
//	            by shard version, so repeated nearby queries skip the index
//	            walk entirely (works with -partition too: a mutable cluster
//	            backend invalidates by per-shard write version, a frozen
//	            one caches against a static view; the server refuses the
//	            flag only for a pool with no validity view at all)
//	-qcell      result-cache snapping grid pitch in map units (with -qcache)
//	-fault      faultlink profile injected on the listener (e.g.
//	            "outage=30s+10s" or a preset name; "" = no faults)
//
// Metrics, spans, and the in-protocol MsgStats snapshot are always on; -obs
// only controls the HTTP export. The server reports its throughput counters
// on SIGINT/SIGTERM and exits after a graceful drain.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/faultlink"
	"mobispatial/internal/obs"
	"mobispatial/internal/qcache"
	"mobispatial/internal/stack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mqserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mqserve", flag.ContinueOnError)
	addr := fs.String("addr", ":7070", "listen address")
	dsName := fs.String("dataset", "pa", "dataset: pa | nyc")
	shards := fs.Int("shards", 0, "spatial shards (0 = one shard over the master tree)")
	inflight := fs.Int("inflight", 0, "max concurrent requests (0 = 4x GOMAXPROCS)")
	obsAddr := fs.String("obs", "", "observability HTTP address (\"\" = disabled)")
	partition := fs.String("partition", "", "i/N: cluster backend i of N Hilbert ranges (\"\" = whole dataset)")
	replicas := fs.Int("replicas", 1, "R-way replication under rotation placement (needs -partition, 1 <= R <= N)")
	mut := fs.Bool("mutable", false, "updatable pool accepting live moves and deletes")
	qcacheMB := fs.Int("qcache", 0, "result-cache budget in MB (0 = off)")
	qcell := fs.Float64("qcell", qcache.DefaultCellSize, "result-cache snapping grid pitch in map units")
	fault := fs.String("fault", "", "faultlink profile injected on the listener (\"\" = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every refusal comes before the dataset is generated.
	if *partition == "" && *replicas != 1 {
		return fmt.Errorf("-replicas %d needs -partition: replication places cluster ranges", *replicas)
	}
	cfg := stack.Server{
		Shards: *shards, Partition: *partition, Replicas: *replicas, Mutable: *mut,
		QCacheMB: *qcacheMB, QCell: *qcell, InFlight: *inflight,
	}
	if err := cfg.Check(); err != nil {
		return err
	}
	ds, err := dataset.ByName(*dsName)
	if err != nil {
		return err
	}
	cfg.Dataset = ds
	st, err := cfg.Build()
	if err != nil {
		return err
	}
	defer st.Close()
	srv, hub, qc := st.Server, st.Hub, st.Cache
	if len(st.Ranges) > 0 {
		segs := 0
		for _, rg := range st.Ranges {
			segs += int(rg.Items)
		}
		fmt.Printf("mqserve: backend %s holds %d of %d ranges (%d segments, R=%d, mutable=%v)\n",
			*partition, len(st.Ranges), st.NumRanges, segs, *replicas, *mut)
	}
	if mp := st.Mutable; mp != nil {
		fmt.Printf("mqserve: mutable pool, %d updatable shards over %d segments\n", mp.NumShards(), mp.Len())
	} else {
		fmt.Printf("mqserve: frozen pool, %d segments in %d shard(s)\n", st.Frozen.Len(), st.Frozen.Shards())
	}
	if qc != nil {
		fmt.Printf("mqserve: result cache %d MB, %.0f-unit cells\n", qc.MaxBytes()>>20, qc.CellSize())
	}

	if *obsAddr != "" {
		obsSrv := &http.Server{Addr: *obsAddr, Handler: obs.Handler(hub)}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "mqserve: obs http:", err)
			}
		}()
		defer obsSrv.Close()
		fmt.Printf("mqserve: observability on http://%s/metrics /traces /debug/pprof\n", *obsAddr)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *fault != "" {
		prof, err := faultlink.ParseProfile(*fault)
		if err != nil {
			return err
		}
		lis = faultlink.New(prof).Listen(lis)
		fmt.Printf("mqserve: fault profile %v on listener\n", prof)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	fmt.Printf("mqserve: dataset %s (%d segments, %.0fx%.0f km), listening on %s\n",
		ds.Name, len(ds.Segments), ds.Extent.Width()/1000, ds.Extent.Height()/1000, *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("mqserve: %v, draining...\n", sig)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		return err
	}
	stats := srv.Stats()
	fmt.Printf("mqserve: served %d requests (%d shipments) over %d connections; %d overloads, %d deadline misses, %d errors\n",
		stats.Served, stats.Shipments, stats.Conns, stats.Overloads, stats.Deadlines, stats.Errors)
	if qc != nil {
		cst := srv.CacheStats()
		fmt.Printf("mqserve: cache %d hits / %d misses (%.1f%% hit rate), %d invalidations, %d entries, %.2f s of server execution saved\n",
			cst.Hits, cst.Misses, cst.HitRate()*100, cst.Invalidations, cst.Entries, srv.CacheSavedSeconds())
	}
	return nil
}
