// Command mqrouter runs the distributed serving tier's coordinator: a
// process that speaks the same framed protocol as mqserve toward mobile
// clients, but answers by fanning each query across the backend shard
// servers that own the touched Hilbert key ranges, merging their replies,
// and failing over to replicas when a backend dies mid-run.
//
// Usage:
//
//	mqrouter -backends host:port,host:port,... [flags]
//
// Flags:
//
//	-addr        listen address for clients (default :7171)
//	-backends    comma-separated backend addresses (required); the order
//	             must match the backends' -partition indices
//	-dataset     pa | nyc (default pa) — the shared deterministic dataset,
//	             used to resolve record payloads locally
//	-conns       pooled connections per backend (default 4)
//	-leg-timeout one backend leg's budget (default 1s)
//	-register    registration timeout while polling backend summaries
//	             (default 30s; backends may still be starting)
//	-refresh     routing-table refresh period — how often backend summaries
//	             are re-polled so writes applied elsewhere become routable
//	             (default 250ms; negative freezes the table at registration)
//	-qcache      router-tier result-cache budget in MB (0 = off): hotspot
//	             fan-out results are cached under cell-snapped keys and
//	             invalidated by the cluster's per-range version vector, so
//	             a repeated nearby query skips the whole fan-out
//	-qcell       result-cache snapping grid pitch in map units (with -qcache)
//	-obs         observability HTTP address ("" = disabled)
//
// The router registers by polling every backend for its MsgSummary (held
// ranges, item counts, MBRs, write versions), builds the assignment table,
// and serves until SIGINT/SIGTERM. The table is refreshed live: a background
// loop re-polls summaries and epoch-swaps the routing snapshot, and every
// write routed through this router widens the routing predicates
// immediately — so objects inserted or moved outside their range's
// registered MBR stay visible to range, point, and NN queries. When the
// backends run -mutable, live writes route too: every write goes to every
// backend (the target range's holders apply it, the rest evict stale
// copies; internal/router/write.go), and the end-of-run report counts
// routed writes and replica divergence.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/obs"
	"mobispatial/internal/qcache"
	"mobispatial/internal/stack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mqrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mqrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":7171", "client listen address")
	backends := fs.String("backends", "", "comma-separated backend addresses (required)")
	dsName := fs.String("dataset", "pa", "dataset: pa | nyc")
	conns := fs.Int("conns", 4, "pooled connections per backend")
	legTimeout := fs.Duration("leg-timeout", time.Second, "one backend leg's budget")
	register := fs.Duration("register", 30*time.Second, "registration timeout")
	refresh := fs.Duration("refresh", 250*time.Millisecond, "routing-table refresh period (negative = frozen at registration)")
	qcacheMB := fs.Int("qcache", 0, "router result-cache budget in MB (0 = off)")
	qcell := fs.Float64("qcell", qcache.DefaultCellSize, "result-cache snapping grid pitch in map units")
	obsAddr := fs.String("obs", "", "observability HTTP address (\"\" = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := stack.Router{
		Backends: strings.Split(*backends, ","), Conns: *conns, LegTimeout: *legTimeout,
		Register: *register, Refresh: *refresh, QCacheMB: *qcacheMB, QCell: *qcell,
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
	fmt.Printf("mqrouter: registered %d backends, %d ranges\n", len(cfg.Backends), st.Router.NumShards())
	if qc != nil {
		fmt.Printf("mqrouter: result cache %d MB, %.0f-unit cells\n", qc.MaxBytes()>>20, qc.CellSize())
	}

	if *obsAddr != "" {
		obsSrv := &http.Server{Addr: *obsAddr, Handler: obs.Handler(hub)}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "mqrouter: obs http:", err)
			}
		}()
		defer obsSrv.Close()
		fmt.Printf("mqrouter: observability on http://%s/metrics\n", *obsAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Printf("mqrouter: dataset %s, listening on %s\n", ds.Name, *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("mqrouter: %v, draining...\n", sig)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		return err
	}
	stats := srv.Stats()
	count := func(name string) uint64 { return hub.Reg.Counter(name).Value() }
	fmt.Printf("mqrouter: served %d requests over %d connections; %d errors, %d failovers, %d unroutable\n",
		stats.Served, stats.Conns, stats.Errors, count("router_failover_total"), count("router_unroutable_total"))
	if writes := count("router_writes_total"); writes > 0 {
		fmt.Printf("mqrouter: routed %d writes to replicas; %d diverged, %d unroutable\n",
			writes, count("router_write_divergence_total"), count("router_write_unroutable_total"))
	}
	if qc != nil {
		cst := srv.CacheStats()
		fmt.Printf("mqrouter: cache %d hits / %d misses (%.1f%% hit rate), %d invalidations, %d entries, %.2f s of server execution saved\n",
			cst.Hits, cst.Misses, cst.HitRate()*100, cst.Invalidations, cst.Entries, srv.CacheSavedSeconds())
	}
	return nil
}
