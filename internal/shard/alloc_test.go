package shard

import (
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/obs"
)

// Warm-path allocation regression tests, mirroring internal/serve's
// hot-path discipline: after warm-up, the sharded range, point, and k-NN
// paths must not allocate — result buffers, NN order buffers and distance
// closures are all caller-owned. Metrics are enabled on purpose: the obs handles must not allocate either.

func allocPool(t *testing.T) (*dataset.Dataset, *Pool) {
	t.Helper()
	ds := fixture(t, 8000)
	p, err := New(ds, Config{Shards: 8, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return ds, p
}

func TestShardedRangeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	ds, p := allocPool(t)
	// The whole extent rides along so every shard's kernel emits a
	// contained run; the other windows straddle MBRs and so call the fused
	// refinement closure, which must stay on the stack.
	windows := append(dataset.RangeQueries(ds, 15, 5), p.Bounds())
	dst := make([]uint32, 0, 1<<16)
	for i := 0; i < 4; i++ { // warm the caller's result buffer
		for _, w := range windows {
			dst = p.RangeAppend(dst[:0], w)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst = p.RangeAppend(dst[:0], windows[i%len(windows)])
		dst = p.FilterRangeAppend(dst[:0], windows[i%len(windows)])
		i++
	})
	if allocs != 0 {
		t.Errorf("warm sharded RangeAppend + FilterRangeAppend: %.1f allocs/op, want 0", allocs)
	}
}

func TestShardedPointZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	ds, p := allocPool(t)
	points := dataset.PointQueries(ds, 16, 6)
	dst := make([]uint32, 0, 1<<12)
	for i := 0; i < 4; i++ {
		for _, pt := range points {
			dst = p.PointAppend(dst[:0], pt, 2.0)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst = p.PointAppend(dst[:0], points[i%len(points)], 2.0)
		i++
	})
	if allocs != 0 {
		t.Errorf("warm sharded PointAppend: %.1f allocs/op, want 0", allocs)
	}
}

func TestShardedKNNZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	ds, p := allocPool(t)
	points := dataset.NNQueries(ds, 16, 7)
	var sc Scratch
	nbs, _ := p.KNearestAppend(nil, points[0], 8, &sc)
	for i := 0; i < 4; i++ {
		for _, pt := range points {
			nbs, _ = p.KNearestAppend(nbs[:0], pt, 8, &sc)
			_ = p.NearestWith(pt, &sc)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		nbs, _ = p.KNearestAppend(nbs[:0], points[i%len(points)], 8, &sc)
		_ = p.NearestWith(points[i%len(points)], &sc)
		i++
	})
	if allocs != 0 {
		t.Errorf("warm sharded k-NN + NN: %.1f allocs/op, want 0", allocs)
	}
}
