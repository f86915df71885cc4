package serve

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
)

// cachedWorld builds one mutable pool served by two in-process servers: one
// with the result cache, one without. The uncached server is the oracle —
// it always re-executes, so any divergence is a cache bug.
func cachedWorld(t testing.TB) (*dataset.Dataset, *mutable.Pool, *Server, *Server) {
	t.Helper()
	ds, _ := testDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatalf("mutable pool: %v", err)
	}
	t.Cleanup(pool.Close)
	cached, err := New(Config{Pool: pool, Cache: qcache.New(qcache.Config{})})
	if err != nil {
		t.Fatalf("cached server: %v", err)
	}
	uncached, err := New(Config{Pool: pool})
	if err != nil {
		t.Fatalf("uncached server: %v", err)
	}
	return ds, pool, cached, uncached
}

// runOne executes one query in-process and copies the answer out of the
// scratch-backed reply: sorted-insensitive callers sort afterwards.
func runOne(t testing.TB, srv *Server, sc *reqScratch, q proto.QueryMsg) ([]uint32, map[uint32]geom.Segment) {
	t.Helper()
	switch r := srv.executeQuery(&q, sc, time.Time{}).(type) {
	case *proto.IDListMsg:
		return append([]uint32(nil), r.IDs...), nil
	case *proto.DataListMsg:
		ids := make([]uint32, 0, len(r.Records))
		segs := make(map[uint32]geom.Segment, len(r.Records))
		for _, rec := range r.Records {
			ids = append(ids, rec.ID)
			segs[rec.ID] = rec.Seg
		}
		return ids, segs
	case *proto.ErrorMsg:
		t.Fatalf("query %+v failed: code=%d %s", q, r.Code, r.Text)
	}
	return nil, nil
}

func sortInPlace(ids []uint32) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }

func randomCacheQuery(rng *rand.Rand, ext geom.Rect) proto.QueryMsg {
	cx := ext.Min.X + rng.Float64()*ext.Width()
	cy := ext.Min.Y + rng.Float64()*ext.Height()
	pt := geom.Point{X: cx, Y: cy}
	half := 100 + rng.Float64()*900
	w := geom.Rect{
		Min: geom.Point{X: cx - half, Y: cy - half},
		Max: geom.Point{X: cx + half, Y: cy + half},
	}
	switch rng.Intn(6) {
	case 0:
		return proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w}
	case 1:
		return proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: w}
	case 2:
		return proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w}
	case 3:
		return proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt}
	case 4:
		return proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt}
	default:
		return proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: 8}
	}
}

// TestCachedEquivalenceUnderWrites is the correctness contract of the whole
// feature: under a moving-vehicles write stream with periodic compaction
// epoch swaps, a cached server and an uncached server over the same pool
// must give identical answers — including the second issue of each query,
// which is served from the cache when no write invalidated it.
func TestCachedEquivalenceUnderWrites(t *testing.T) {
	ds, pool, cached, uncached := cachedWorld(t)
	ext := ds.Extent
	rng := rand.New(rand.NewSource(23))
	csc, usc := cached.getScratch(), uncached.getScratch()

	randSeg := func(c geom.Point, spread float64) geom.Segment {
		a := geom.Point{X: c.X + (rng.Float64()*2-1)*spread, Y: c.Y + (rng.Float64()*2-1)*spread}
		return geom.Segment{A: a, B: geom.Point{X: a.X + 40 + rng.Float64()*80, Y: a.Y + rng.Float64()*60}}
	}

	type vehicle struct {
		id  uint32
		seg geom.Segment
	}
	var fleet []vehicle
	nextID := uint32(ds.Len())
	center := ext.Center()
	hot := geom.Rect{
		Min: geom.Point{X: center.X - 700, Y: center.Y - 700},
		Max: geom.Point{X: center.X + 700, Y: center.Y + 700},
	}

	check := func(q proto.QueryMsg) {
		t.Helper()
		// Twice: first issue fills (or invalidates) the cache, second hits it.
		for rep := 0; rep < 2; rep++ {
			gotIDs, gotSegs := runOne(t, cached, csc, q)
			wantIDs, wantSegs := runOne(t, uncached, usc, q)
			sortInPlace(gotIDs)
			sortInPlace(wantIDs)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("rep %d %+v: cached %d ids, uncached %d", rep, q, len(gotIDs), len(wantIDs))
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("rep %d %+v: cached ids %v, uncached %v", rep, q, gotIDs, wantIDs)
				}
			}
			for id, sg := range wantSegs {
				if gotSegs[id] != sg {
					t.Fatalf("rep %d %+v: stale geometry for id %d: cached %v, live %v", rep, q, id, gotSegs[id], sg)
				}
			}
		}
	}

	for round := 0; round < 60; round++ {
		for w := 0; w < 4; w++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(fleet) == 0:
				sg := randSeg(geom.Point{
					X: ext.Min.X + rng.Float64()*ext.Width(),
					Y: ext.Min.Y + rng.Float64()*ext.Height()}, 400)
				if round%2 == 0 { // bias half the inserts into the hotspot
					sg = randSeg(center, 600)
				}
				if _, _, _, err := pool.ApplyMove(nextID, sg); err != nil {
					t.Fatalf("insert %d: %v", nextID, err)
				}
				fleet = append(fleet, vehicle{nextID, sg})
				nextID++
			case op < 8:
				i := rng.Intn(len(fleet))
				sg := randSeg(fleet[i].seg.A, 300)
				if _, existed, _, err := pool.ApplyMove(fleet[i].id, sg); err != nil || !existed {
					t.Fatalf("move %d: existed=%v err=%v", fleet[i].id, existed, err)
				}
				fleet[i].seg = sg
			default:
				i := rng.Intn(len(fleet))
				if _, existed, _, err := pool.ApplyDelete(fleet[i].id); err != nil || !existed {
					t.Fatalf("delete %d: existed=%v err=%v", fleet[i].id, existed, err)
				}
				fleet[i] = fleet[len(fleet)-1]
				fleet = fleet[:len(fleet)-1]
			}
		}
		if round%7 == 3 {
			pool.ForceCompact() // epoch swap: version-keyed views must not serve pre-swap entries
		}
		// The recurring hotspot query sees every write generation; the random
		// ones cover the key space.
		check(proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: hot})
		for qi := 0; qi < 5; qi++ {
			check(randomCacheQuery(rng, ext))
		}
	}

	st := cached.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("workload did not exercise hit+miss+invalidation paths: %+v", st)
	}
}

// TestCachedQueryZeroAlloc pins the warm cache-hit path — view build, probe,
// copy-out, refinement, reply build — at zero heap allocations, same
// contract as the uncached hot path.
func TestCachedQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, srv, _ := cachedWorld(t)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 400, Y: center.Y - 400},
		Max: geom.Point{X: center.X + 400, Y: center.Y + 400},
	}
	queries := []*proto.QueryMsg{
		{ID: 1, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
		{ID: 2, Kind: proto.KindRange, Mode: proto.ModeData, Window: w},
		{ID: 3, Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w},
		{ID: 4, Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: center},
		{ID: 5, Kind: proto.KindNN, Mode: proto.ModeIDs, Point: center},
		{ID: 6, Kind: proto.KindNN, Mode: proto.ModeIDs, Point: center, K: 8},
	}
	sc := srv.getScratch()
	for i := 0; i < 2; i++ { // fill every entry, then confirm the hit path
		for _, q := range queries {
			if _, bad := srv.executeQuery(q, sc, time.Time{}).(*proto.ErrorMsg); bad {
				t.Fatal("warmup query failed")
			}
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			if _, bad := srv.executeQuery(q, sc, time.Time{}).(*proto.ErrorMsg); bad {
				t.Fatal("query failed")
			}
		}
	}); n != 0 {
		t.Fatalf("warm cache-hit executeQuery: %.2f allocs/op over %d queries, want 0", n, len(queries))
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Fatalf("alloc loop never hit the cache: %+v", st)
	}
}

// TestCacheChurnSoak runs concurrent readers against a cached server while
// movers rewrite geometry and a compactor swaps epochs — the -race CI soak.
// After quiescing, a full sweep against the uncached oracle verifies no
// stale entry survived the churn.
func TestCacheChurnSoak(t *testing.T) {
	ds, pool, cached, uncached := cachedWorld(t)
	ext := ds.Extent
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uint32(rng.Intn(ds.Len()))
				a := geom.Point{
					X: ext.Min.X + rng.Float64()*ext.Width(),
					Y: ext.Min.Y + rng.Float64()*ext.Height(),
				}
				sg := geom.Segment{A: a, B: geom.Point{X: a.X + 50, Y: a.Y + 30}}
				if _, _, _, err := pool.ApplyMove(id, sg); err != nil {
					t.Errorf("move %d: %v", id, err)
					return
				}
			}
		}(int64(100 + m))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pool.ForceCompact()
			time.Sleep(time.Millisecond)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sc := cached.getScratch()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randomCacheQuery(rng, ext)
				if em, bad := cached.executeQuery(&q, sc, time.Time{}).(*proto.ErrorMsg); bad {
					t.Errorf("reader: %+v -> code=%d %s", q, em.Code, em.Text)
					return
				}
			}
		}(int64(200 + r))
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	rng := rand.New(rand.NewSource(300))
	csc, usc := cached.getScratch(), uncached.getScratch()
	for i := 0; i < 60; i++ {
		q := randomCacheQuery(rng, ext)
		gotIDs, _ := runOne(t, cached, csc, q)
		wantIDs, _ := runOne(t, uncached, usc, q)
		sortInPlace(gotIDs)
		sortInPlace(wantIDs)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("post-churn %+v: cached %d ids, uncached %d", q, len(gotIDs), len(wantIDs))
		}
		for j := range gotIDs {
			if gotIDs[j] != wantIDs[j] {
				t.Fatalf("post-churn %+v: cached ids diverge from oracle", q)
			}
		}
	}
}

// zipfHotspots samples H hotspot centers from the data itself: popular
// places are where the road network is dense.
func zipfHotspots(rng *rand.Rand, ds *dataset.Dataset, hotspots int) []geom.Point {
	centers := make([]geom.Point, hotspots)
	for i := range centers {
		sg := ds.Seg(uint32(rng.Intn(ds.Len())))
		centers[i] = geom.Point{X: (sg.A.X + sg.B.X) / 2, Y: (sg.A.Y + sg.B.Y) / 2}
	}
	return centers
}

// zipfWindows synthesizes the Zipf-hotspot window workload: each window
// picks a Zipf-ranked hotspot, with small jitter so near-identical windows
// snap to the same cell-quantized key.
func zipfWindows(seed int64, ds *dataset.Dataset, n, hotspots int, s, half float64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	centers := zipfHotspots(rng, ds, hotspots)
	z := rand.NewZipf(rng, s, 1, uint64(hotspots-1))
	out := make([]geom.Rect, n)
	for i := range out {
		c := centers[z.Uint64()]
		cx := c.X + (rng.Float64()*2-1)*60
		cy := c.Y + (rng.Float64()*2-1)*60
		out[i] = geom.Rect{
			Min: geom.Point{X: cx - half, Y: cy - half},
			Max: geom.Point{X: cx + half, Y: cy + half},
		}
	}
	return out
}

// zipfQueries is the full mixed read workload of a mobile hotspot: half the
// clients browse a map window, a quarter resolve the segments at their
// position, a quarter ask for the 8 nearest segments from one of a few
// shared anchor points (clients at the same junction ask from the same
// snapped position, so NN keys repeat the way real hotspot traffic does).
func zipfQueries(seed int64, ds *dataset.Dataset, n, hotspots int, s, half float64) []proto.QueryMsg {
	rng := rand.New(rand.NewSource(seed))
	centers := zipfHotspots(rng, ds, hotspots)
	anchors := make([][4]geom.Point, hotspots)
	for i := range anchors {
		for j := range anchors[i] {
			anchors[i][j] = geom.Point{
				X: centers[i].X + (rng.Float64()*2-1)*60,
				Y: centers[i].Y + (rng.Float64()*2-1)*60,
			}
		}
	}
	z := rand.NewZipf(rng, s, 1, uint64(hotspots-1))
	out := make([]proto.QueryMsg, n)
	for i := range out {
		h := int(z.Uint64())
		c := centers[h]
		cx := c.X + (rng.Float64()*2-1)*60
		cy := c.Y + (rng.Float64()*2-1)*60
		switch rng.Intn(4) {
		case 0, 1:
			out[i] = proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: geom.Rect{
				Min: geom.Point{X: cx - half, Y: cy - half},
				Max: geom.Point{X: cx + half, Y: cy + half},
			}}
		case 2:
			out[i] = proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: geom.Point{X: cx, Y: cy}}
		default:
			out[i] = proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: anchors[h][rng.Intn(4)], K: 8}
		}
	}
	return out
}

// benchDataset is a city-scale world — dense enough that an uncached range
// query does real index work and resolves tens of records through the
// pool's id table.
func benchDataset(b testing.TB) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "qcache-bench",
		NumSegments:    60000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50000, Y: 50000}},
		Clusters:       6,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.25,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.6,
		Seed:           11,
	})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	return ds
}

// BenchmarkZipfCached is the acceptance benchmark: data-mode range queries
// over a Zipf hotspot distribution against a mutable pool, cache off vs on.
// The uncached path pays the index walk plus a per-record geometry resolve
// through the pool's id table; a hit pays a striped-LRU copy-out and an
// in-place refinement. results/BENCH_qcache.json records the ratio.
func BenchmarkZipfCached(b *testing.B) {
	run := func(b *testing.B, withCache bool) {
		ds := benchDataset(b)
		pool, err := mutable.NewFromDataset(ds, 8, mutable.Config{CompactInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		cfg := Config{Pool: pool}
		if withCache {
			cfg.Cache = qcache.New(qcache.Config{CellSize: 256})
		}
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		queries := zipfQueries(7, ds, 4096, 64, 1.2, 600)
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
