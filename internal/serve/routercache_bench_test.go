package serve

// routercache_bench_test.go pins the router-tier result cache: the same
// qcache that short-circuits a local index walk in mqserve sits in front of
// the mqrouter fan-out here, so a hotspot hit skips the entire multi-leg
// network exchange — the largest per-query cost in the serving tier.
// results/BENCH_routercache.json records the off/on ratio and hit rate.

import (
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/router"
)

// startRouterBench builds the full distributed tier in-process: nBackends
// mutable loopback backends over a Hilbert partition of ds at R=replicas,
// and a coordinating Router registered against them (live refresh on, at
// its default period, as mqrouter runs it).
func startRouterBench(b testing.TB, ds *dataset.Dataset, nBackends, replicas int) *router.Router {
	b.Helper()
	var addrs []string
	for be := 0; be < nBackends; be++ {
		pool, infos := partitionedMutable(b, ds, be, nBackends, replicas)
		_, addr := startServer(b, Config{Pool: pool, Ranges: infos, NumRanges: nBackends})
		addrs = append(addrs, addr)
	}
	r, err := router.New(router.Config{
		Backends: addrs, Dataset: ds, RegisterTimeout: 15 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkRouterCachedZipf: the Zipf hotspot mix (50% range-ids, 25%
// point-ids, 25% 8-NN) through the router-tier server, cache off vs on.
// The uncached path pays the whole coordinator fan-out — cover selection,
// framed loopback round trips to the owning backends, merge; a hit pays one
// striped-LRU probe validated against the router's live per-range version
// vector. Run with -benchtime=2000x: the miss path is a network exchange,
// so time-based benchtime burns minutes on the "off" arm.
func BenchmarkRouterCachedZipf(b *testing.B) {
	run := func(b *testing.B, withCache bool) {
		ds := benchDataset(b)
		r := startRouterBench(b, ds, 3, 2)
		cfg := Config{Pool: r}
		if withCache {
			cfg.Cache = qcache.New(qcache.Config{CellSize: 256})
		}
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		queries := zipfQueries(7, ds, 4096, 64, 1.2, 600)
		// The router-tier server has no master tree: ids-mode only.
		for i := range queries {
			queries[i].Mode = proto.ModeIDs
		}
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sc := srv.getScratch()
			for pb.Next() {
				q := queries[next.Add(1)%uint64(len(queries))]
				if _, bad := srv.executeQuery(&q, sc, time.Time{}).(*proto.ErrorMsg); bad {
					b.Error("query failed")
					return
				}
			}
		})
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "queries/s")
		}
		if withCache {
			st := srv.CacheStats()
			b.ReportMetric(st.HitRate(), "hit-rate")
			b.ReportMetric(srv.CacheSavedSeconds(), "saved-s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
