package parallel

import (
	"math/rand"
	"sync"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// contentionDataset builds one small-but-real dataset and pool shared by the
// contention tests.
func contentionDataset(t testing.TB) (*dataset.Dataset, *Pool) {
	t.Helper()
	cfg := dataset.GenConfig{
		Name:           "contention",
		NumSegments:    6000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 40000, Y: 40000}},
		Clusters:       5,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.2,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 150},
		GridBias:       0.7,
		Seed:           42,
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	pool, err := New(ds, tree, 0)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	return ds, pool
}

// TestMixedQueriesUnderContention hammers one shared index with mixed query
// types from many goroutines and cross-checks every answer against a
// single-threaded reference run. Run under -race this is the tier-1 proof
// that the single-query API really is safe for the server's per-connection
// goroutines.
func TestMixedQueriesUnderContention(t *testing.T) {
	ds, pool := contentionDataset(t)
	ext := ds.Extent

	const (
		goroutines = 24
		perG       = 150
	)

	type queryCase struct {
		kind   int // 0 point, 1 range, 2 nn, 3 knn, 4 filter-range
		pt     geom.Point
		window geom.Rect
		k      int
	}
	mk := func(rng *rand.Rand) queryCase {
		qc := queryCase{kind: rng.Intn(5)}
		cx := ext.Min.X + rng.Float64()*ext.Width()
		cy := ext.Min.Y + rng.Float64()*ext.Height()
		qc.pt = geom.Point{X: cx, Y: cy}
		half := 50 + rng.Float64()*2000
		qc.window = geom.Rect{
			Min: geom.Point{X: cx - half, Y: cy - half},
			Max: geom.Point{X: cx + half, Y: cy + half},
		}
		qc.k = 1 + rng.Intn(8)
		return qc
	}

	// Per-goroutine deterministic workloads plus single-threaded reference
	// answers computed before any concurrency starts.
	cases := make([][]queryCase, goroutines)
	wantIDs := make([][][]uint32, goroutines)
	wantNN := make([][]NearestResult, goroutines)
	for g := range cases {
		rng := rand.New(rand.NewSource(int64(1000 + g)))
		cases[g] = make([]queryCase, perG)
		wantIDs[g] = make([][]uint32, perG)
		wantNN[g] = make([]NearestResult, perG)
		for i := range cases[g] {
			qc := mk(rng)
			cases[g][i] = qc
			switch qc.kind {
			case 0:
				wantIDs[g][i] = pool.PointAppend(nil, qc.pt, 2.0)
			case 1:
				wantIDs[g][i] = pool.RangeAppend(nil, qc.window)
			case 2:
				wantNN[g][i] = pool.NearestWith(qc.pt, nil)
			case 3:
				nbs, ok := pool.KNearestAppend(nil, qc.pt, qc.k, nil)
				if !ok {
					t.Fatal("packed R-tree should support k-NN")
				}
				for _, nb := range nbs {
					wantIDs[g][i] = append(wantIDs[g][i], nb.ID)
				}
			case 4:
				wantIDs[g][i] = pool.FilterRangeAppend(nil, qc.window)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, qc := range cases[g] {
				switch qc.kind {
				case 0:
					if got := pool.PointAppend(nil, qc.pt, 2.0); !sameIDs(got, wantIDs[g][i]) {
						errs <- "point answer diverged under contention"
						return
					}
				case 1:
					if got := pool.RangeAppend(nil, qc.window); !sameIDs(got, wantIDs[g][i]) {
						errs <- "range answer diverged under contention"
						return
					}
				case 2:
					if got := pool.NearestWith(qc.pt, nil); got != wantNN[g][i] {
						errs <- "nearest answer diverged under contention"
						return
					}
				case 3:
					nbs, _ := pool.KNearestAppend(nil, qc.pt, qc.k, nil)
					got := make([]uint32, 0, len(nbs))
					for _, nb := range nbs {
						got = append(got, nb.ID)
					}
					if !sameIDs(got, wantIDs[g][i]) {
						errs <- "k-NN answer diverged under contention"
						return
					}
				case 4:
					if got := pool.FilterRangeAppend(nil, qc.window); !sameIDs(got, wantIDs[g][i]) {
						errs <- "filter answer diverged under contention"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func sameIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
