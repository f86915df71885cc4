// Command mqserve runs the networked spatial-query server: the repository's
// simulated "server" machine made real — a TCP service answering point,
// range, and NN queries against a shared packed R-tree (each query runs on
// the goroutine that admitted it; -inflight is the concurrency control), and
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
//	-shards     spatial shards (0 = monolithic single tree; N > 0 =
//	            Hilbert-sharded pool, one packed R-tree per shard, each query
//	            walking only the shards its window or point touches)
//	-inflight   admission-control cap on concurrent requests (0 = 4x
//	            GOMAXPROCS)
//	-obs        observability HTTP address serving /metrics (Prometheus),
//	            /traces (JSON spans), and /debug/pprof ("" = disabled)
//	-partition  i/N: run as cluster backend i of N, indexing only the
//	            Hilbert key ranges it holds (every backend derives the
//	            identical partition from the shared deterministic dataset)
//	-replicas   R-way replication under rotation placement (with
//	            -partition; backend i also holds ranges i-1..i-R+1 mod N)
//	-mutable    updatable pool: accepts live MsgInsert/MsgDelete/MsgMove,
//	            overlaying a delta tree on the packed base and folding it
//	            in with epoch-swapped compactions (monolithic or with
//	            -partition; -shards sets the monolithic shard count)
//	-adaptive   workload-adaptive repartitioning (with -mutable, monolithic
//	            only): a background repartitioner tracks per-shard query
//	            heat and splits hot shards / merges cold neighbors at their
//	            median Hilbert key, publishing the new cuts through live
//	            summaries so routers follow the workload
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
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
	"mobispatial/internal/shard"
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
	shards := fs.Int("shards", 0, "spatial shards (0 = monolithic)")
	inflight := fs.Int("inflight", 0, "max concurrent requests (0 = 4x GOMAXPROCS)")
	obsAddr := fs.String("obs", "", "observability HTTP address (\"\" = disabled)")
	partition := fs.String("partition", "", "i/N: cluster backend i of N Hilbert ranges (\"\" = whole dataset)")
	replicas := fs.Int("replicas", 1, "R-way replication under rotation placement (with -partition)")
	mut := fs.Bool("mutable", false, "updatable pool accepting live inserts/deletes/moves")
	adaptive := fs.Bool("adaptive", false, "workload-adaptive shard repartitioning (with -mutable, monolithic only)")
	qcacheMB := fs.Int("qcache", 0, "result-cache budget in MB (0 = off)")
	qcell := fs.Float64("qcell", qcache.DefaultCellSize, "result-cache snapping grid pitch in map units")
	fault := fs.String("fault", "", "faultlink profile injected on the listener (\"\" = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := dataset.ByName(*dsName)
	if err != nil {
		return err
	}

	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		return err
	}
	hub := obs.NewHub()

	// The master tree always stays monolithic — shipments carve sub-indexes
	// from it — but query execution is either the monolithic parallel pool,
	// the Hilbert-sharded pool, or (with -partition) a sharded pool over
	// only the cluster ranges this backend holds.
	var pool serve.Executor
	var held []proto.RangeInfo
	numRanges := 0
	if *adaptive {
		if !*mut {
			return fmt.Errorf("-adaptive requires -mutable")
		}
		if *partition != "" {
			return fmt.Errorf("-adaptive requires a monolithic pool (drop -partition); the repartitioner must own the whole key space")
		}
	}
	if *partition != "" {
		var err error
		held, numRanges, pool, err = partitionPool(ds, *partition, *replicas, *shards, *mut, hub)
		if err != nil {
			return err
		}
	} else if *mut {
		n := *shards
		if n <= 0 {
			n = 4
		}
		mp, err := mutable.NewFromDataset(ds, n, mutable.Config{
			Obs:      hub,
			Adaptive: mutable.AdaptiveConfig{Enabled: *adaptive},
		})
		if err != nil {
			return err
		}
		defer mp.Close()
		if *adaptive {
			fmt.Printf("mqserve: adaptive mutable pool, %d updatable shards over %d segments (split/merge on query heat)\n",
				mp.NumShards(), mp.Len())
		} else {
			fmt.Printf("mqserve: mutable pool, %d updatable shards over %d segments\n", mp.NumShards(), mp.Len())
		}
		pool = mp
	} else if *shards > 0 {
		sp, err := shard.New(ds, shard.Config{Shards: *shards, Obs: hub.Reg})
		if err != nil {
			return err
		}
		fmt.Printf("mqserve: %d shards x ~%d segments\n",
			sp.Shards(), (sp.Len()+sp.Shards()-1)/sp.Shards())
		pool = sp
	} else {
		mp, err := parallel.New(ds, tree, 0)
		if err != nil {
			return err
		}
		pool = mp
	}
	var qc *qcache.Cache
	if *qcacheMB > 0 {
		qc = qcache.New(qcache.Config{MaxBytes: *qcacheMB << 20, CellSize: *qcell, Obs: hub})
		fmt.Printf("mqserve: result cache %d MB, %.0f-unit cells\n", *qcacheMB, *qcell)
	}
	srv, err := serve.New(serve.Config{
		Pool: pool, Master: tree, MaxInFlight: *inflight, Obs: hub,
		Ranges: held, NumRanges: numRanges, Cache: qc,
	})
	if err != nil {
		return err
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
	st := srv.Stats()
	fmt.Printf("mqserve: served %d requests (%d shipments) over %d connections; %d overloads, %d deadline misses, %d errors\n",
		st.Served, st.Shipments, st.Conns, st.Overloads, st.Deadlines, st.Errors)
	if qc != nil {
		cst := srv.CacheStats()
		fmt.Printf("mqserve: cache %d hits / %d misses (%.1f%% hit rate), %d invalidations, %d entries, %.2f s of server execution saved\n",
			cst.Hits, cst.Misses, cst.HitRate()*100, cst.Invalidations, cst.Entries, srv.CacheSavedSeconds())
	}
	return nil
}

// partitionPool builds the sharded pool of cluster backend i of n: the
// deterministic dataset is partitioned into n contiguous Hilbert ranges
// (bit-identical in every process), and this backend indexes the ranges
// rotation placement assigns it. Item ids stay cluster-global.
func partitionPool(ds *dataset.Dataset, spec string, replicas, shards int, mut bool, hub *obs.Hub) ([]proto.RangeInfo, int, serve.Executor, error) {
	var idx, n int
	if c, err := fmt.Sscanf(spec, "%d/%d", &idx, &n); err != nil || c != 2 {
		return nil, 0, nil, fmt.Errorf("bad -partition %q (want i/N)", spec)
	}
	ranges, bounds := shard.PartitionHilbert(ds.Items(), n, 0)
	if len(ranges) != n {
		return nil, 0, nil, fmt.Errorf("-partition %q: dataset yields only %d ranges", spec, len(ranges))
	}
	idxs, err := shard.ReplicaRanges(idx, n, replicas)
	if err != nil {
		return nil, 0, nil, err
	}
	var sub []rtree.Item
	var held []proto.RangeInfo
	var heldRanges []shard.Range
	for _, ri := range idxs {
		rg := ranges[ri]
		sub = append(sub, rg.Items...)
		heldRanges = append(heldRanges, rg)
		held = append(held, proto.RangeInfo{
			Index: uint32(rg.Index),
			Items: uint32(len(rg.Items)),
			Lo:    rg.Lo,
			Hi:    rg.Hi,
			MBR:   rg.MBR,
		})
	}
	var pool serve.Executor
	if mut {
		// One updatable shard per held range, keyed by the cluster-wide
		// cuts so every backend agrees on write ownership.
		cuts := make([]uint64, len(ranges))
		for i, rg := range ranges {
			cuts[i] = rg.Lo
		}
		mp, err := mutable.New(mutable.Config{
			Dataset: ds, Ranges: heldRanges, Cuts: cuts, GlobalIndex: idxs,
			Bounds: bounds, Obs: hub,
		})
		if err != nil {
			return nil, 0, nil, err
		}
		pool = mp
	} else {
		sp, err := shard.New(ds, shard.Config{Shards: shards, Items: sub, Obs: hub.Reg})
		if err != nil {
			return nil, 0, nil, err
		}
		pool = sp
	}
	fmt.Printf("mqserve: backend %d/%d holds %d of %d ranges (%d segments, R=%d, mutable=%v)\n",
		idx, n, len(held), n, len(sub), replicas, mut)
	return held, n, pool, nil
}
