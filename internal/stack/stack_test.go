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
	"mobispatial/internal/qcache"
	"mobispatial/internal/router"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// build builds cfg's stack, serves it on a loopback port and dials it. It
// returns the stack, its address, and whether it answers a shipment request.
func build(t *testing.T, cfg interface{ Build() (*Stack, error) }, ds *dataset.Dataset) (*Stack, string, *client.Client, bool) {
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
// default) and pins them to what bench/engines.go builds by hand, so that
// moving the benchmark onto this package changes nothing it measures.
func TestStackBuildsTheBenchWorkloads(t *testing.T) {
	ds := dataset.PA()
	mqserve := Server{Dataset: ds, Replicas: 1, QCell: qcache.DefaultCellSize}

	// static (mqserve) and hotspot (mqserve -qcache 64): one frozen shard
	// over the master tree, shipments on.
	for _, mb := range []int{0, 64} {
		cfg := mqserve
		cfg.QCacheMB = mb
		st, _, _, ships := build(t, cfg, ds)
		if p := st.Frozen; p == nil || p.Shards() != 1 || p.Len() != ds.Len() || st.Master.Len() != ds.Len() || p.Bounds() != st.Master.Bounds() || !ships {
			t.Errorf("-qcache %d: want one frozen shard over the %d-item master tree, shipments on", mb, ds.Len())
		}
		if (mb == 0) != (st.Cache == nil) || mb > 0 && (st.Cache.MaxBytes() != 64<<20 || st.Cache.CellSize() != 512) {
			t.Errorf("-qcache %d: cache %+v, want 64 MB at 512-unit cells or none", mb, st.Cache)
		}
	}

	// moving: mqserve -mutable.
	cfg := mqserve
	cfg.Mutable = true
	st, _, _, ships := build(t, cfg, ds)
	if p := st.Mutable; p == nil || st.Frozen != nil || p.NumShards() != 4 || p.Len() != ds.Len() || st.Cache != nil || !ships {
		t.Errorf("moving: want a mutable pool of 4 shards over %d items, no cache, shipments on", ds.Len())
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
		if p := st.Frozen; p == nil || p.Shards() != shard.DefaultShards || p.Len() != held.Len() || !ships {
			t.Errorf("backend %d: want %d frozen shards over %d items, shipments on", i, shard.DefaultShards, held.Len())
		}
		if sm, err := c.Summary(); err != nil || sm.NumRanges != 3 || !slices.Equal(sm.Ranges, held.Rows()) {
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
	if rt.Router == nil || rt.Router.NumShards() != 3 || rt.Master != nil || rt.Cache != nil || ships {
		t.Errorf("router: want 3 registered ranges, no master tree, no cache, no shipments")
	}
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

// TestPartitionedStackPinsNoMap: a partitioned backend's Stack keeps the
// rows it advertises, not the map shard.Cut sorted, so the held items live
// on only in the pool. Dropping everything of a built stack but its server
// frees under 1 MiB, frozen or mutable (pinning the cut map held 5.3 MiB
// of PA's items).
func TestPartitionedStackPinsNoMap(t *testing.T) {
	ds := dataset.PA()
	for _, mut := range []bool{false, true} {
		st, err := Server{Dataset: ds, Partition: "0/3", Replicas: 2, Mutable: mut}.Build()
		if err != nil {
			t.Fatal(err)
		}
		srv, mp := st.Server, st.Mutable
		whole := liveHeap()
		runtime.KeepAlive(st)
		if pinned := whole - liveHeap(); pinned >= 1<<20 {
			t.Errorf("mutable=%v: the Stack pins %.2f MiB beyond its server", mut, float64(pinned)/(1<<20))
		}
		srv.Close()
		if mp != nil {
			mp.Close()
		}
	}
}
