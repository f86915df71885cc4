// engines.go holds every internal/ constructor the benchmark calls, so a
// change to how the program is put together (ROADMAP item 2's engine
// collapse, say) touches this one file of the benchmark (the generators'
// road network in bench/workload is load-generator input, not the program).
// Each stack is built the way cmd/mqserve and cmd/mqrouter build it: same
// constructors, Obs hub on, every default untouched.
package main

import (
	"fmt"
	"net"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/router"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// Sizes the workloads fix.
const (
	qcacheMB        = 64
	localShards     = 4 // mqserve -mutable's default shard count
	clusterBackends = 3
	clusterReplicas = 2
	routerRefresh   = 250 * time.Millisecond
)

// newDataset generates the dataset every workload runs on.
func newDataset() *dataset.Dataset { return dataset.PA() }

// stack is one workload's serving chain, listening on loopback, plus the
// client that drives it. The engine fields expose what the chain was built
// from so the layer ladder can call the same objects from outside.
type stack struct {
	ds   *dataset.Dataset
	tree *rtree.Tree // the master (monolithic packed) tree
	cli  *client.Client

	hub      *obs.Hub   // the front server's hub
	backHubs []*obs.Hub // cluster: one hub per backend

	exec serve.Executor // the front server's pool
	par  *parallel.Pool // static, hotspot
	mut  *mutable.Pool  // moving
	rtr  *router.Router // cluster
	qc   *qcache.Cache  // hotspot

	datasetGen, treeBuild time.Duration
	closers               []func()
}

// close tears the stack down in reverse build order and waits for every
// goroutine it started.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// listen starts srv on a fresh loopback port and registers its shutdown.
func (s *stack) listen(srv *serve.Server) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	s.closers = append(s.closers, func() {
		// Shutdown's error is a drain timeout; Close below drops whatever
		// is still open, which is all a benchmark teardown needs.
		_ = srv.Shutdown(5 * time.Second)
		_ = srv.Close()
		<-done
	})
	return lis.Addr().String(), nil
}

// buildStack builds the named workload's chain with the given worker width
// (0 = GOMAXPROCS, as the commands default) and dials a client of conns
// connections at it. The caller times the call: it is the set-up the
// benchmark reports, up to but excluding the first probe.
func buildStack(name string, conns int) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	t0 := time.Now()
	s.ds = newDataset()
	s.datasetGen = time.Since(t0)
	t0 = time.Now()
	if s.tree, err = rtree.Build(s.ds.Items(), rtree.Config{}, ops.Null{}); err != nil {
		return nil, err
	}
	s.treeBuild = time.Since(t0)
	s.hub = obs.NewHub()

	cfg := serve.Config{Master: s.tree, Obs: s.hub}
	switch name {
	case "static", "hotspot": // mqserve [-qcache 64]
		if s.par, err = parallel.New(s.ds, s.tree, 0); err != nil {
			return nil, err
		}
		cfg.Pool = s.par
		if name == "hotspot" {
			s.qc = qcache.New(qcache.Config{MaxBytes: qcacheMB << 20, CellSize: qcache.DefaultCellSize, Obs: s.hub})
			cfg.Cache = s.qc
		}
	case "moving": // mqserve -mutable
		if s.mut, err = mutable.NewFromDataset(s.ds, localShards, mutable.Config{Obs: s.hub}); err != nil {
			return nil, err
		}
		s.closers = append(s.closers, s.mut.Close)
		cfg.Pool = s.mut
	case "cluster": // 3 x mqserve -partition i/3 -replicas 2, then mqrouter
		addrs := make([]string, clusterBackends)
		for i := range addrs {
			if addrs[i], err = s.startBackend(i); err != nil {
				return nil, err
			}
		}
		s.rtr, err = router.New(router.Config{
			Backends:        addrs,
			Dataset:         s.ds,
			ConnsPerBackend: 4,
			LegTimeout:      time.Second,
			RegisterTimeout: 30 * time.Second,
			RefreshInterval: routerRefresh,
			Obs:             s.hub,
		})
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() { _ = s.rtr.Close() })
		// The router is the front server's pool; shipments need the master
		// tree, which lives on the backends, so mqrouter leaves it unset.
		cfg = serve.Config{Pool: s.rtr, Obs: s.hub}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	s.exec = cfg.Pool
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := s.listen(srv)
	if err != nil {
		return nil, err
	}
	// mqload gives its client a hub of its own; so does the benchmark.
	if s.cli, err = client.New(client.Config{Addr: addr, Conns: conns, Obs: obs.NewHub()}); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { _ = s.cli.Close() })
	return s, nil
}

// startBackend is cmd/mqserve's partitionPool for backend i: the dataset is
// cut into contiguous Hilbert ranges and the backend indexes the ranges
// rotation placement assigns it. The in-process backends share one dataset
// and one master tree; separate processes would each build their own.
func (s *stack) startBackend(i int) (string, error) {
	ranges, _ := shard.PartitionHilbert(s.ds.Items(), clusterBackends, 0)
	if len(ranges) != clusterBackends {
		return "", fmt.Errorf("dataset yields only %d ranges", len(ranges))
	}
	idxs, err := shard.ReplicaRanges(i, clusterBackends, clusterReplicas)
	if err != nil {
		return "", err
	}
	var sub []rtree.Item
	var held []proto.RangeInfo
	for _, ri := range idxs {
		rg := ranges[ri]
		sub = append(sub, rg.Items...)
		held = append(held, proto.RangeInfo{
			Index: uint32(rg.Index), Items: uint32(len(rg.Items)),
			Lo: rg.Lo, Hi: rg.Hi, MBR: rg.MBR,
		})
	}
	hub := obs.NewHub()
	sp, err := shard.New(s.ds, shard.Config{Items: sub, Obs: hub.Reg})
	if err != nil {
		return "", err
	}
	s.closers = append(s.closers, sp.Close)
	srv, err := serve.New(serve.Config{
		Pool: sp, Master: s.tree, Obs: hub, Ranges: held, NumRanges: clusterBackends,
	})
	if err != nil {
		return "", err
	}
	s.backHubs = append(s.backHubs, hub)
	return s.listen(srv)
}

// localEngines are the four single-process executors ROADMAP item 2 has to
// choose between, built over one dataset for the executor rung.
type localEngines struct {
	par     *parallel.Pool
	shard   *shard.Pool
	clean   *mutable.Pool // overlays empty
	overlay *mutable.Pool // overlayMoves writes pending
	reg     *obs.Registry // the sharded pool's counters
}

// newLocalEngines builds the four engines. Both mutable pools run without a
// background compactor so the rung decides what sits in their overlays.
func newLocalEngines(ds *dataset.Dataset, tree *rtree.Tree) (_ *localEngines, err error) {
	e := &localEngines{reg: obs.NewRegistry()}
	if e.par, err = parallel.New(ds, tree, 0); err != nil {
		return nil, err
	}
	if e.shard, err = shard.New(ds, shard.Config{Shards: localShards, Obs: e.reg}); err != nil {
		return nil, err
	}
	mcfg := mutable.Config{CompactInterval: -1, CompactMaxAge: -1}
	if e.clean, err = mutable.NewFromDataset(ds, localShards, mcfg); err != nil {
		e.close()
		return nil, err
	}
	if e.overlay, err = mutable.NewFromDataset(ds, localShards, mcfg); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *localEngines) close() {
	if e.shard != nil {
		e.shard.Close()
	}
	if e.clean != nil {
		e.clean.Close()
	}
	if e.overlay != nil {
		e.overlay.Close()
	}
}

// newCacheReplica builds a result cache configured like the hotspot server's
// and the validity view serve.New gives a frozen pool, for the cache rung.
func newCacheReplica(s *stack) (*qcache.Cache, qcache.Source) {
	qc := qcache.New(qcache.Config{MaxBytes: qcacheMB << 20, CellSize: qcache.DefaultCellSize})
	return qc, qcache.Static{Rect: s.par.Bounds()}
}

// newOracle builds the reference the answers are checked against: its own
// monolithic packed tree, never shared with the stack under test.
func newOracle(ds *dataset.Dataset) (*parallel.Pool, error) {
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		return nil, err
	}
	return parallel.New(ds, tree, 1)
}

// newPlanner fetches the paper's Fig. 2 shipment around the map centre into
// a §4.1 planner on the stack's client.
func newPlanner(s *stack, halfM float64, budgetBytes int) (*client.Planner, error) {
	pl := client.NewPlanner(s.cli)
	c := s.ds.Extent.Center()
	if err := pl.FetchShipment(geom.Rect{Min: c, Max: c}.Expand(halfM), budgetBytes, s.ds.RecordBytes); err != nil {
		return nil, fmt.Errorf("shipment: %w", err)
	}
	return pl, nil
}
