package shard

import (
	"sync"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// TestConcurrentReaders hammers one sharded pool from many concurrent
// callers and checks every answer against the precomputed monolithic
// result. Run under -race this doubles as the data-race proof for the
// shared shard set.
func TestConcurrentReaders(t *testing.T) {
	ds := fixture(t, 6000)
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Over(tree)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(ds, Config{Shards: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	windows := dataset.RangeQueries(ds, 24, 21)
	points := dataset.PointQueries(ds, 24, 22)
	nnPts := dataset.NNQueries(ds, 24, 23)

	wantRange := make([][]uint32, len(windows))
	for i, w := range windows {
		wantRange[i] = mono.RangeAppend(nil, w)
	}
	wantPoint := make([][]uint32, len(points))
	for i, pt := range points {
		wantPoint[i] = mono.PointAppend(nil, pt, 2.0)
	}
	wantNN := make([]NearestResult, len(nnPts))
	wantKNN := make([][]rtree.Neighbor, len(nnPts))
	for i, pt := range nnPts {
		wantNN[i] = mono.NearestWith(pt, nil)
		wantKNN[i], _ = mono.KNearestAppend(nil, pt, 6, nil)
	}

	const callers = 16
	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sc Scratch
			var ids []uint32
			var nbs []rtree.Neighbor
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(windows)
				ids = p.RangeAppend(ids[:0], windows[i])
				if !sameIDSet(ids, wantRange[i]) {
					errs <- "range answer diverged under contention"
					return
				}
				i = (c*3 + r) % len(points)
				ids = p.PointAppend(ids[:0], points[i], 2.0)
				if !sameIDSet(ids, wantPoint[i]) {
					errs <- "point answer diverged under contention"
					return
				}
				i = (c*5 + r) % len(nnPts)
				if res := p.NearestWith(nnPts[i], &sc); res.OK != wantNN[i].OK ||
					(res.OK && res.Dist != wantNN[i].Dist) {
					errs <- "NN answer diverged under contention"
					return
				}
				nbs, _ = p.KNearestAppend(nbs[:0], nnPts[i], 6, &sc)
				if len(nbs) != len(wantKNN[i]) {
					errs <- "k-NN length diverged under contention"
					return
				}
				for j := range nbs {
					if nbs[j].Dist != wantKNN[i][j].Dist {
						errs <- "k-NN distances diverged under contention"
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestCloseIdempotent: Close is a no-op kept for callers; twice is safe.
func TestCloseIdempotent(t *testing.T) {
	ds := fixture(t, 500)
	p, err := New(ds, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.RangeAppend(nil, p.Bounds())
	p.Close()
	p.Close()
}
