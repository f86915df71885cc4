package stack

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/router"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// builder is a stack config: Server or Router.
type builder interface{ Build() (*Stack, error) }

// build builds cfg's stack, serves it on a loopback port and dials it. It
// returns the stack, its address, and whether it answers a shipment request.
func build(t *testing.T, cfg builder, ds *dataset.Dataset) (*Stack, string, *client.Client, bool) {
	t.Helper()
	st, err := cfg.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	t.Cleanup(st.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Server.Serve(lis)
	c, err := client.New(client.Config{Addr: lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctr := ds.Extent.Center()
	_, err = c.FetchShipment(geom.Rect{Min: ctr, Max: ctr}.Expand(500), 1<<16, ds.RecordBytes)
	return st, lis.Addr().String(), c, err == nil
}

// TestStackBuildsTheBenchWorkloads builds the four BENCHMARK.json
// workloads' stacks from the flags each runs with (every other flag at its
// default): every mqserve is one updatable pool that ships. bench/engines.go
// still builds the frozen engine (shard.Pool) by hand for static, hotspot
// and the cluster's backends until the benchmark re-anchor (ROADMAP 1a-ii)
// moves it onto this package, so those three rows measure a pool mqserve no
// longer runs.
func TestStackBuildsTheBenchWorkloads(t *testing.T) {
	ds := dataset.PA()
	mqserve := Server{Dataset: ds, Replicas: 1, QCell: qcache.DefaultCellSize}

	// static (mqserve), hotspot (mqserve -qcache 64) and moving (mqserve):
	// one pool of mutable.DefaultShards shards over the whole map.
	for _, mb := range []int{0, 64} {
		cfg := mqserve
		cfg.QCacheMB = mb
		st, _, _, ships := build(t, cfg, ds)
		if p := st.Pool; p == nil || st.Router != nil || p.NumShards() != 4 || p.Len() != ds.Len() || !ships {
			t.Errorf("-qcache %d: want one pool of 4 shards over %d items, shipments on", mb, ds.Len())
		}
		if (mb == 0) != (st.Cache == nil) || mb > 0 && (st.Cache.MaxBytes() != 64<<20 || st.Cache.CellSize() != 512) {
			t.Errorf("-qcache %d: cache %+v, want 64 MB at 512-unit cells or none", mb, st.Cache)
		}
	}

	// cluster: 3 x mqserve -partition i/3 -replicas 2, then mqrouter.
	part := shard.Cut(ds.Items(), 3)
	var addrs []string
	for i := range 3 {
		held, err := part.Hold(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mqserve
		cfg.Partition, cfg.Replicas = fmt.Sprintf("%d/3", i), 2
		st, addr, c, ships := build(t, cfg, ds)
		addrs = append(addrs, addr)
		if p := st.Pool; p == nil || p.NumShards() != len(held.Ranges) || p.Len() != held.Len() || !ships {
			t.Errorf("backend %d: want one shard per held range (%d) over %d items, shipments on", i, len(held.Ranges), held.Len())
		}
		// The pool's live rows run in index order, each range's Hi closing
		// the gap to the next one's Lo.
		if sm, err := c.Summary(); err != nil || sm.NumRanges != 3 || !slices.EqualFunc(sm.Ranges, byIndex(held.Rows()), sameRange) {
			t.Errorf("backend %d summary %+v (%v), want 3 ranges and rows %+v", i, sm, err, held.Rows())
		}
	}
	mqrouter := Router{
		Dataset: ds, Backends: addrs, Conns: 4, LegTimeout: time.Second,
		Register: 30 * time.Second, Refresh: 250 * time.Millisecond, QCell: qcache.DefaultCellSize,
	}
	rt, _, _, ships := build(t, mqrouter, ds)
	want := router.Config{
		Backends: addrs, Dataset: ds, ConnsPerBackend: 4, LegTimeout: time.Second,
		RegisterTimeout: 30 * time.Second, RefreshInterval: 250 * time.Millisecond, Obs: rt.Hub,
	}
	if got := mqrouter.config(rt.Hub); !reflect.DeepEqual(got, want) {
		t.Errorf("router config %+v, want %+v", got, want)
	}
	if rt.Router == nil || rt.Router.NumShards() != 3 || rt.Pool != nil || rt.Cache != nil || !ships {
		t.Errorf("router: want 3 registered ranges, no local pool, no cache, shipments on")
	}
}

// byIndex returns the rows sorted by range index.
func byIndex(rows []proto.RangeInfo) []proto.RangeInfo {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b proto.RangeInfo) int { return int(a.Index) - int(b.Index) })
	return rows
}

// sameRange compares two summary rows on all but Hi.
func sameRange(a, b proto.RangeInfo) bool {
	a.Hi, b.Hi = 0, 0
	return a == b
}

// TestCachePitchIsTheCache: a -qcell of 0 is the cache's default pitch on
// both tiers, and the built cache (not the flag) is what the commands print.
func TestCachePitchIsTheCache(t *testing.T) {
	ds := dataset.NYC()
	be, addr, _, _ := build(t, Server{Dataset: ds, QCacheMB: 1}, ds)
	rt, _, _, _ := build(t, Router{Dataset: ds, Backends: []string{addr}, QCacheMB: 1}, ds)
	for _, st := range []*Stack{be, rt} {
		if st.Cache == nil || st.Cache.CellSize() != qcache.DefaultCellSize || st.Cache.MaxBytes() != 1<<20 {
			t.Errorf("cache %+v, want 1 MB at %d-unit cells", st.Cache, qcache.DefaultCellSize)
		}
	}
}

// liveHeap returns the live heap after two collections (the second frees
// what the first one's finalizers and sweeps released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPartitionedStackPinsNoMap: a partitioned backend's Stack keeps no
// part of the map shard.Cut sorted, so the held items live on only in the
// pool. Dropping everything of a built stack but its server
// frees under 1 MiB (pinning the cut map held 5.3 MiB of PA's items).
func TestPartitionedStackPinsNoMap(t *testing.T) {
	ds := dataset.PA()
	st, err := Server{Dataset: ds, Partition: "0/3", Replicas: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv, pool := st.Server, st.Pool
	whole := liveHeap()
	runtime.KeepAlive(st)
	if pinned := whole - liveHeap(); pinned >= 1<<20 {
		t.Errorf("the Stack pins %.2f MiB beyond its server", float64(pinned)/(1<<20))
	}
	srv.Close()
	pool.Close()
}

// TestServerStackPinsNoMasterTree: a built stack holds one index of the map,
// the pool it answers, takes writes and cuts shipments from. Built over PA
// with the dataset kept alive, a monolithic stack's live heap is bounded
// near its pool (~7 MiB: the shards' trees plus an 8-byte slot per id) and a
// partitioned backend's near its share. The whole-map tree that a second
// index added measured 5.8 MiB, so either one coming back fails.
func TestServerStackPinsNoMasterTree(t *testing.T) {
	ds := dataset.PA()
	for _, c := range []struct {
		name  string
		cfg   Server
		limit float64 // MiB
	}{
		{"monolithic", Server{Dataset: ds}, 8.5},
		{"0/3 R=2", Server{Dataset: ds, Partition: "0/3", Replicas: 2}, 6.5},
	} {
		before := liveHeap()
		st, err := c.cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		mib := float64(liveHeap()-before) / (1 << 20)
		t.Logf("%s: %.2f MiB live", c.name, mib)
		if mib > c.limit {
			t.Errorf("%s: the built stack holds %.2f MiB, over its %.1f MiB bound: a second index of the map is back", c.name, mib, c.limit)
		}
		st.Close()
		runtime.KeepAlive(ds)
	}
}

// TestServerStackPinsNoDataset: a built stack keeps no reference to the
// dataset it was built from — every serving pool answers from its trees'
// leaves, and a router keeps only the write quantizer it derived from the
// map's bounds — so once the caller drops the dataset, a few collections
// free it while the stack lives on.
func TestServerStackPinsNoDataset(t *testing.T) {
	nyc := dataset.NYC()
	_, backend, _, _ := build(t, Server{Dataset: nyc}, nyc)
	for _, c := range []struct {
		name string
		cfg  func(*dataset.Dataset) builder
	}{
		{"mutable", func(ds *dataset.Dataset) builder {
			return Server{Dataset: ds}
		}},
		{"mutable partitioned", func(ds *dataset.Dataset) builder {
			return Server{Dataset: ds, Partition: "0/3", Replicas: 2}
		}},
		{"shards", func(ds *dataset.Dataset) builder {
			return Server{Dataset: ds, Shards: 8}
		}},
		{"router", func(ds *dataset.Dataset) builder {
			return Router{Dataset: ds, Backends: []string{backend}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			freed := make(chan struct{})
			st := buildDropping(t, c.cfg, freed)
			defer st.Close()
			for round := 0; round < 10; round++ {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
			t.Errorf("the dataset outlived 10 collections: the built stack pins it")
		})
	}
}

// buildDropping generates a dataset that closes freed when it is collected,
// builds cfg's stack over it and returns the stack, keeping no reference to
// the dataset itself.
func buildDropping(t *testing.T, cfg func(*dataset.Dataset) builder, freed chan struct{}) *Stack {
	t.Helper()
	ds := dataset.NYC()
	runtime.SetFinalizer(ds, func(*dataset.Dataset) { close(freed) })
	st, err := cfg(ds).Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
