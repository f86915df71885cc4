package mutable

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
)

// BenchmarkAdaptiveZipf is the adaptive repartitioner's acceptance benchmark: a Zipf
// hotspot read stream over a pool whose hot cell is being re-written at full
// speed by a fleet of movers, static 16-shard layout vs the adaptive
// repartitioner. The static layout concentrates every hot write in one big
// shard — its overlay churns through compactions that rebuild 1/16th of the
// world each time, and hot reads ride the locked three-layer merge while it
// does. The adaptive pool splits the hot range into small shards, so each
// rebuild touches a sliver and the merge windows shrink with it. Reported
// per sub-benchmark: read latency p50/p95/p99 (ms), splits applied, final
// shard count, and folds (compactions) run. Run with -benchtime=Nx so the
// percentile window is one uninterrupted run; the recorded numbers in
// results/BENCH_adaptive.json came from:
//
//	go test ./internal/mutable -run '^$' -bench AdaptiveZipf -benchtime=10000x -count=5
func BenchmarkAdaptiveZipf(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 200000)
	b.Run("static16", func(b *testing.B) { benchZipf(b, ds, false) })
	b.Run("adaptive", func(b *testing.B) { benchZipf(b, ds, true) })
}

func benchZipf(b *testing.B, ds *dataset.Dataset, adaptive bool) {
	hub := obs.NewHub()
	cfg := Config{CompactInterval: 2 * time.Millisecond, compactThreshold: 128, Obs: hub}
	if adaptive {
		// MinShardItems is the stabilizer: hot slivers stop splitting near
		// 2*MinShardItems objects, so the layout reaches a fixpoint during
		// warmup instead of endlessly trading cold merges for hot splits.
		// MaxShards/MinShards give the repartitioner a little headroom around
		// the static budget of 16.
		cfg.Adaptive = AdaptiveConfig{
			Enabled:         true,
			Interval:        5 * time.Millisecond,
			MinShardItems:   250,
			MaxShards:       32,
			MinShards:       12,
			HalfLifeSeconds: 0.5,
		}
	}
	p, err := NewFromDataset(ds, 16, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	ext := ds.Extent
	hotC := geom.Point{X: ext.Min.X + 0.31*ext.Width(), Y: ext.Min.Y + 0.57*ext.Height()}
	hotR := 0.02 * ext.Width()

	// Zipf-ranked query centers: rank 0 is the hot cell, the tail spreads
	// uniformly — the mqload -zipf shape in miniature.
	crng := rand.New(rand.NewSource(11))
	centers := make([]geom.Point, 64)
	centers[0] = hotC
	for i := 1; i < len(centers); i++ {
		centers[i] = geom.Point{
			X: ext.Min.X + crng.Float64()*ext.Width(),
			Y: ext.Min.Y + crng.Float64()*ext.Height(),
		}
	}

	// Movers re-writing positions inside the hot cell at a fixed offered
	// rate (a paced ticker, not a spin loop — an unthrottled writer on a
	// shared core would load the two variants differently). This is the
	// write pressure that makes the static hot shard churn.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(13))
		base := uint32(ds.Len())
		const movers = 256
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for j := 0; j < 128; j++ {
				a := geom.Point{
					X: hotC.X + (wrng.Float64()*2-1)*hotR,
					Y: hotC.Y + (wrng.Float64()*2-1)*hotR,
				}
				seg := geom.Segment{A: a, B: geom.Point{X: a.X + 8, Y: a.Y + 8}}
				if _, _, _, err := p.ApplyInsert(base+uint32(i%movers), seg); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		}
	}()

	qrng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(qrng, 2.5, 1, uint64(len(centers)-1))
	side := 0.05 * ext.Width()
	var buf []uint32
	query := func() time.Duration {
		c := centers[zipf.Uint64()]
		w := geom.Rect{
			Min: geom.Point{X: c.X - side, Y: c.Y - side},
			Max: geom.Point{X: c.X + side, Y: c.Y + side},
		}
		t0 := time.Now()
		buf = p.RangeAppend(buf[:0], w)
		return time.Since(t0)
	}

	// Warm both variants identically: the adaptive pool uses this window to
	// observe the heat and split the hot range.
	warmUntil := time.Now().Add(3 * time.Second)
	for time.Now().Before(warmUntil) {
		query()
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat = append(lat, query())
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	slices.Sort(lat)
	pct := func(q float64) float64 {
		return float64(lat[int(q*float64(len(lat)-1))]) / 1e6
	}
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.95), "p95-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
	b.ReportMetric(float64(p.Splits()), "splits")
	b.ReportMetric(float64(p.NumShards()), "shards")
	for _, c := range hub.Reg.Snapshot().Counters {
		if c.Name == "mutable_compactions_total" {
			b.ReportMetric(float64(c.Value), "folds")
		}
	}
}
