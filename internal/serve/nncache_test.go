package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/shard"
)

// TestCachedNNMatchesExecutor pins the k-NN cell entries to re-execution:
// over the paper's PA map (a frozen 4-shard pool) and over a tie-heavy world
// (street chains sharing endpoints, ~10% exact duplicates, a mutable pool
// with duplicates written into its overlays), every cached k-NN answer —
// ids, data and neighbors mode, k 1, 2, 8 and 16 — must equal the uncached
// server's over the same pool: ids, distances and records. The probe points
// are the ones a cell refinement can get wrong: jittered hotspot clusters,
// segment endpoints (distance ties at zero), cell corners, points exactly on
// cell edges, and points far from all data.
func TestCachedNNMatchesExecutor(t *testing.T) {
	t.Run("PA", func(t *testing.T) {
		ds := dataset.PA()
		pool, err := shard.New(ds, shard.Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		checkCachedNN(t, ds, pool, qcache.DefaultCellSize)
	})
	t.Run("ties", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		ds := tieWorld(rng, 6000)
		pool, err := mutable.NewFromDataset(ds, 3, mutable.Config{CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		// Exact copies of held segments under fresh ids, so ties also
		// cross from the packed bases into the overlays.
		for i := 0; i < 64; i++ {
			if _, _, _, err := pool.ApplyMove(uint32(ds.Len()+i), ds.Seg(uint32(rng.Intn(ds.Len())))); err != nil {
				t.Fatal(err)
			}
		}
		checkCachedNN(t, ds, pool, 128)
	})
}

// checkCachedNN asks every probe point of ds at every k and mode of a cached
// and an uncached server over pool, and compares the answers.
func checkCachedNN(t *testing.T, ds *dataset.Dataset, pool Executor, cell float64) {
	cached, err := New(Config{Pool: pool, Cache: qcache.New(qcache.Config{CellSize: cell})})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	pts := nnProbePoints(rand.New(rand.NewSource(43)), ds, cell)
	asked := 0
	for i, pt := range pts {
		for _, k := range []uint16{1, 2, 8, 16} {
			for _, mode := range []proto.Mode{proto.ModeIDs, proto.ModeData, proto.ModeCandidates} {
				label := fmt.Sprintf("point %d %v k=%d mode=%d", i, pt, k, mode)
				q := proto.QueryMsg{ID: 1, Kind: proto.KindNN, Mode: mode, Point: pt, K: k}
				got := askQuery(t, label, cached, q, deadline)
				want := askQuery(t, label, uncached, q, deadline)
				if len(want.IDs)+len(want.Recs) != int(k) {
					t.Fatalf("%s: the uncached server answered %+v", label, want)
				}
				if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Recs, want.Recs) {
					t.Fatalf("%s: cached %+v, uncached %+v", label, got, want)
				}
				asked++
			}
		}
	}
	st := cached.CacheStats()
	if st.Hits < uint64(asked)/2 || st.Entries == 0 {
		t.Fatalf("%d k-NN queries over %d points: the cell entries served too few: %+v", asked, len(pts), st)
	}
	t.Logf("%d k-NN queries over %d points: %d hits, %d misses, %d bypasses, %d entries, %d KiB",
		asked, len(pts), st.Hits, st.Misses, st.Bypasses, st.Entries, st.Bytes>>10)
}

// nnProbePoints returns the k-NN probe points of ds on a grid of pitch cell.
func nnProbePoints(rng *rand.Rand, ds *dataset.Dataset, cell float64) []geom.Point {
	anySeg := func() geom.Segment { return ds.Seg(uint32(rng.Intn(ds.Len()))) }
	var pts []geom.Point
	for h := 0; h < 8; h++ { // jittered hotspot clusters
		c := anySeg().Midpoint()
		for j := 0; j < 24; j++ {
			pts = append(pts, geom.Point{X: c.X + (rng.Float64()*2-1)*64, Y: c.Y + (rng.Float64()*2-1)*64})
		}
	}
	for j := 0; j < 48; j++ { // segment endpoints
		s := anySeg()
		pts = append(pts, s.A, s.B)
	}
	for j := 0; j < 32; j++ { // a cell corner, and a point on each of two cell edges
		p := anySeg().A
		x0, y0 := math.Floor(p.X/cell)*cell, math.Floor(p.Y/cell)*cell
		pts = append(pts, geom.Point{X: x0, Y: y0}, geom.Point{X: x0, Y: p.Y}, geom.Point{X: p.X, Y: y0})
	}
	e := ds.Extent // far from all data
	pts = append(pts,
		geom.Point{X: e.Max.X + 9.5*cell, Y: e.Max.Y + 3*cell},
		geom.Point{X: e.Min.X - 4*cell, Y: e.Center().Y},
		geom.Point{X: e.Center().X, Y: e.Min.Y - 0.5*cell})
	return pts
}

// tieWorld builds n segments as street chains on a 4 km square: each street
// continues from its previous segment's end, so consecutive segments share
// an endpoint, and ~10% of segments exactly duplicate an earlier one.
func tieWorld(rng *rand.Rand, n int) *dataset.Dataset {
	const side = 4000.0
	segs := make([]geom.Segment, 0, n)
	var at geom.Point
	for len(segs) < n {
		switch {
		case len(segs) > 0 && rng.Float64() < 0.10:
			segs = append(segs, segs[rng.Intn(len(segs))])
			continue
		case len(segs)%8 == 0:
			at = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		ang := rng.Float64() * 2 * math.Pi
		l := 20 + rng.Float64()*80
		next := geom.Point{X: at.X + l*math.Cos(ang), Y: at.Y + l*math.Sin(ang)}
		segs = append(segs, geom.Segment{A: at, B: next})
		at = next
	}
	ext := geom.EmptyRect()
	for _, s := range segs {
		ext = ext.Union(s.MBR())
	}
	return &dataset.Dataset{Name: "ties", Segments: segs, RecordBytes: 32, Extent: ext}
}

// TestNNCacheEntriesBoundedByCells: a cell entry serves every point of its
// cell, so 10 000 k-NN queries jittered ±64 m around 8 centres leave at most
// one entry per (cell touched, k) — not one per query.
func TestNNCacheEntriesBoundedByCells(t *testing.T) {
	ds, _, srv, _ := cachedWorld(t)
	cell := srv.qc.CellSize()
	rng := rand.New(rand.NewSource(47))
	centres := zipfHotspots(rng, ds, 8)
	ks := []uint16{1, 8}
	touched := make(map[[2]float64]bool)
	sc := srv.getScratch()
	for i := 0; i < 10000; i++ {
		c := centres[rng.Intn(len(centres))]
		pt := geom.Point{X: c.X + (rng.Float64()*2-1)*64, Y: c.Y + (rng.Float64()*2-1)*64}
		touched[[2]float64{math.Floor(pt.X / cell), math.Floor(pt.Y / cell)}] = true
		q := proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: ks[i%len(ks)]}
		if resp, bad := srv.executeQuery(&q, sc, time.Time{}).(*proto.ErrorMsg); bad {
			t.Fatalf("%+v answered %+v", q, resp)
		}
	}
	st := srv.CacheStats()
	if limit := len(touched) * len(ks); st.Entries > limit || st.Entries == 0 {
		t.Fatalf("10000 k-NN queries over %d cells at %d values of k left %d entries, want 1..%d", len(touched), len(ks), st.Entries, limit)
	}
	t.Logf("%d cells touched, %d entries, hit rate %.4f", len(touched), st.Entries, st.HitRate())
}
