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
	"strconv"
	"strings"
	"syscall"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/faultlink"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
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
	backend, numRanges, err := parsePartition(*partition, *replicas)
	if err != nil {
		return err
	}
	if *mut && numRanges > 0 && *shards != 0 {
		return fmt.Errorf("-shards %d with -mutable -partition: a partitioned mutable pool has one shard per held range", *shards)
	}

	ds, err := dataset.ByName(*dsName)
	if err != nil {
		return err
	}

	// The master tree always covers the whole map — shipments carve
	// sub-indexes from it. The unsharded frozen server walks that same tree.
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		return err
	}
	hub := obs.NewHub()

	// The pool: updatable shards with -mutable, else the frozen engine, where
	// the flags pick only a shard count, an item subset, and whether the
	// master tree is reused (nothing to cut: -shards 0 over the whole map).
	var part backendRanges // zero without -partition: every item, no range rows
	if numRanges > 0 {
		if part, err = holdRanges(ds, backend, numRanges, *replicas); err != nil {
			return err
		}
		fmt.Printf("mqserve: backend %d/%d holds %d of %d ranges (%d segments, R=%d, mutable=%v)\n",
			backend, numRanges, len(part.infos), numRanges, len(part.items), *replicas, *mut)
	}
	var pool serve.Executor
	if *mut {
		mp, err := mutablePool(ds, part, *shards, hub)
		if err != nil {
			return err
		}
		defer mp.Close()
		fmt.Printf("mqserve: mutable pool, %d updatable shards over %d segments\n", mp.NumShards(), mp.Len())
		pool = mp
	} else {
		var sp *shard.Pool
		if part.items == nil && *shards <= 0 {
			sp, err = shard.Over(ds, tree)
		} else {
			sp, err = shard.New(ds, shard.Config{Shards: *shards, Items: part.items, Obs: hub.Reg})
		}
		if err != nil {
			return err
		}
		fmt.Printf("mqserve: frozen pool, %d segments in %d shard(s)\n", sp.Len(), sp.Shards())
		pool = sp
	}
	var qc *qcache.Cache
	if *qcacheMB > 0 {
		qc = qcache.New(qcache.Config{MaxBytes: *qcacheMB << 20, CellSize: *qcell, Obs: hub})
		fmt.Printf("mqserve: result cache %d MB, %.0f-unit cells\n", *qcacheMB, qc.CellSize())
	}
	srv, err := serve.New(serve.Config{
		Pool: pool, Master: tree, MaxInFlight: *inflight, Obs: hub,
		Ranges: part.infos, NumRanges: numRanges, Cache: qc,
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

// parsePartition reads -partition's "i/N" strictly (0 <= i < N, nothing but
// the two integers) and checks -replicas against it. N is 0 without the flag.
func parsePartition(spec string, replicas int) (backend, n int, err error) {
	if spec == "" {
		if replicas != 1 {
			return 0, 0, fmt.Errorf("-replicas %d needs -partition: replication places cluster ranges", replicas)
		}
		return 0, 0, nil
	}
	is, ns, ok := strings.Cut(spec, "/")
	backend, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if !ok || errI != nil || errN != nil || backend < 0 || backend >= n {
		return 0, 0, fmt.Errorf("bad -partition %q (want i/N with 0 <= i < N)", spec)
	}
	if replicas < 1 || replicas > n {
		return 0, 0, fmt.Errorf("-replicas %d outside [1, %d] for -partition %s", replicas, n, spec)
	}
	return backend, n, nil
}

// backendRanges is what cluster backend i of N holds: the deterministic dataset
// cut into N contiguous Hilbert ranges (bit-identical in every process), and
// of those the ones rotation placement assigns this backend. Item ids stay
// cluster-global.
type backendRanges struct {
	held   []shard.Range     // the held ranges, primary first
	infos  []proto.RangeInfo // the rows the backend registers with
	items  []rtree.Item      // their items, concatenated
	cuts   []uint64          // every range's low key, cluster-wide
	bounds geom.Rect         // MBR of the whole dataset
}

func holdRanges(ds *dataset.Dataset, backend, n, replicas int) (backendRanges, error) {
	ranges, bounds := shard.PartitionHilbert(ds.Items(), n, 0)
	if len(ranges) != n {
		return backendRanges{}, fmt.Errorf("-partition %d/%d: dataset yields only %d ranges", backend, n, len(ranges))
	}
	idxs, err := shard.ReplicaRanges(backend, n, replicas)
	if err != nil {
		return backendRanges{}, err
	}
	p := backendRanges{bounds: bounds, cuts: make([]uint64, n)}
	for i, rg := range ranges {
		p.cuts[i] = rg.Lo
	}
	for _, ri := range idxs {
		rg := ranges[ri]
		p.held = append(p.held, rg)
		p.items = append(p.items, rg.Items...)
		p.infos = append(p.infos, proto.RangeInfo{
			Index: uint32(rg.Index),
			Items: uint32(len(rg.Items)),
			Lo:    rg.Lo,
			Hi:    rg.Hi,
			MBR:   rg.MBR,
		})
	}
	return p, nil
}

// mutablePool builds the updatable pool: over a partition, one shard per
// held range, keyed by the cluster-wide cuts so every backend agrees on write
// ownership; otherwise shards (default 4) Hilbert runs of the whole map.
func mutablePool(ds *dataset.Dataset, part backendRanges, shards int, hub *obs.Hub) (*mutable.Pool, error) {
	cfg := mutable.Config{Obs: hub}
	if part.items != nil {
		cfg.Dataset, cfg.Ranges, cfg.Cuts, cfg.Bounds = ds, part.held, part.cuts, part.bounds
		return mutable.New(cfg)
	}
	if shards <= 0 {
		shards = 4
	}
	return mutable.NewFromDataset(ds, shards, cfg)
}
