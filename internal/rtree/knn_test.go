package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// TestKNearestMatchesBruteForce: the k-NN kernel answers exactly the first
// k of a (distance, id) sort of every item, each with its segment. The traced walk admits by
// distance alone, so on a tie cut by k its ids may differ: it must match the
// sort's distances, each at its own id's distance.
func TestKNearestMatchesBruteForce(t *testing.T) {
	segs := randSegments(2000, 40)
	tr := buildTest(t, segs, Config{})
	rng := rand.New(rand.NewSource(41))
	var sc NNScratch
	for q := 0; q < 50; q++ {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		df := func(id uint32) float64 { return segs[id].DistToPoint(p) }
		all := make([]Neighbor, len(segs))
		for i, s := range segs {
			all[i] = Neighbor{ID: uint32(i), Dist: s.DistToPoint(p), Seg: s}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Before(all[j]) })
		want := all[:k]
		tr.KNearestCollect(p, k, nil, &sc, nil)
		if got := sc.DrainKNNAppend(nil); !slices.Equal(got, want) {
			t.Fatalf("query %d k=%d: kernel\n got  %v\n want %v", q, k, got, want)
		}
		traced := tr.KNearest(p, k, df, &ops.Counts{})
		if len(traced) != k {
			t.Fatalf("query %d: traced walk found %d neighbors, want %d", q, len(traced), k)
		}
		for i, nb := range traced {
			if nb.Dist != want[i].Dist || nb.Dist != df(nb.ID) || nb.Seg != segs[nb.ID] {
				t.Fatalf("query %d k=%d: traced neighbor %d is %+v, want distance %g", q, k, i, nb, want[i].Dist)
			}
		}
	}
}

func TestKNearestDegenerateCases(t *testing.T) {
	segs := randSegments(10, 42)
	tr := buildTest(t, segs, Config{})
	df := func(id uint32) float64 { return segs[id].DistToPoint(geom.Point{X: 5, Y: 5}) }
	if got := tr.KNearest(geom.Point{X: 5, Y: 5}, 0, df, ops.Null{}); got != nil {
		t.Error("k=0 returned results")
	}
	if got := tr.KNearest(geom.Point{X: 5, Y: 5}, 50, df, ops.Null{}); len(got) != 10 {
		t.Errorf("k>n returned %d, want all 10", len(got))
	}
	empty, err := Build(nil, Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.KNearest(geom.Point{}, 3, nil, ops.Null{}); got != nil {
		t.Error("empty tree returned results")
	}
}

func TestKNearestK1AgreesWithNearest(t *testing.T) {
	segs := randSegments(1500, 43)
	tr := buildTest(t, segs, Config{})
	rng := rand.New(rand.NewSource(44))
	for q := 0; q < 50; q++ {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		df := func(id uint32) float64 { return segs[id].DistToPoint(p) }
		one := tr.KNearest(p, 1, df, ops.Null{})
		_, d, ok := tr.Nearest(p, df, ops.Null{})
		if !ok || len(one) != 1 {
			t.Fatal("missing results")
		}
		if math.Abs(one[0].Dist-d) > 1e-12 {
			t.Fatalf("k=1 dist %g != Nearest %g", one[0].Dist, d)
		}
	}
}

func TestKNearestPrunes(t *testing.T) {
	segs := randSegments(20000, 45)
	tr := buildTest(t, segs, Config{})
	p := geom.Point{X: 500, Y: 500}
	var rec ops.Counts
	tr.KNearest(p, 10, func(id uint32) float64 { return segs[id].DistToPoint(p) }, &rec)
	if visits := rec.Ops[ops.OpNodeVisit]; visits > int64(tr.NodeCount())/4 {
		t.Fatalf("10-NN visited %d of %d nodes", visits, tr.NodeCount())
	}
}

func BenchmarkKNearest10(b *testing.B) {
	segs := randSegments(50000, 46)
	tr := buildTest(b, segs, Config{})
	p := geom.Point{X: 512, Y: 377}
	df := func(id uint32) float64 { return segs[id].DistToPoint(p) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNearest(p, 10, df, ops.Null{})
	}
}
