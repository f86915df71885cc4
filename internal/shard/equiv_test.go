package shard

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/rtree"
)

// TestEquivalenceQuick property-tests the sharded executor against the
// monolithic parallel.Pool over randomized small datasets and shard
// counts. Range/point answers must be identical as id sets; NN/k-NN
// answers must report identical distances (tie *ids* may differ, so ~10% of
// segments are exact duplicates to force ties). Empty and inverted windows
// must come back empty on both paths.
func TestEquivalenceQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 40+rng.Intn(260))

		tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			t.Fatal(err)
		}
		mono, err := parallel.New(ds, tree, 2)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := New(ds, Config{Shards: 1 + rng.Intn(10)})
		if err != nil {
			t.Fatal(err)
		}
		defer sharded.Close()

		ext := ds.Extent
		for q := 0; q < 8; q++ {
			w := randomWindow(rng, ext)
			if !sameIDSet(mono.FilterRange(w), sharded.FilterRangeAppend(nil, w)) {
				t.Errorf("seed %d: FilterRange mismatch on %v", seed, w)
				return false
			}
			if !sameIDSet(mono.Range(w), sharded.Range(w)) {
				t.Errorf("seed %d: Range mismatch on %v", seed, w)
				return false
			}

			pt := randomPoint(rng, ext, ds)
			if !sameIDSet(mono.FilterPoint(pt), sharded.FilterPointAppend(nil, pt)) {
				t.Errorf("seed %d: FilterPoint mismatch at %v", seed, pt)
				return false
			}
			if !sameIDSet(mono.Point(pt, 2.0), sharded.Point(pt, 2.0)) {
				t.Errorf("seed %d: Point mismatch at %v", seed, pt)
				return false
			}

			a, b := mono.Nearest(pt), sharded.Nearest(pt)
			if a.OK != b.OK || (a.OK && a.Dist != b.Dist) {
				t.Errorf("seed %d: Nearest mismatch at %v: mono %+v sharded %+v", seed, pt, a, b)
				return false
			}

			for _, k := range []int{0, 1, 3, ds.Len() + 5} {
				ma, oka := mono.KNearest(pt, k)
				sa, oks := sharded.KNearest(pt, k)
				if oka != oks || !sameDistances(ds, pt, ma, sa) {
					t.Errorf("seed %d: KNearest(k=%d) mismatch at %v: mono %d nbs, sharded %d nbs",
						seed, k, pt, len(ma), len(sa))
					return false
				}
			}
		}

		// Degenerate windows: empty and inverted rects answer empty on both.
		for _, w := range []geom.Rect{geom.EmptyRect(), {Min: geom.Point{X: 10, Y: 10}, Max: geom.Point{X: -10, Y: -10}}} {
			if got := sharded.Range(w); len(got) != 0 {
				t.Errorf("seed %d: sharded Range(%v) = %d ids, want 0", seed, w, len(got))
				return false
			}
			if got := mono.Range(w); len(got) != 0 {
				t.Errorf("seed %d: mono Range(%v) = %d ids, want 0", seed, w, len(got))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// randomDataset builds a dataset of short random segments on a ~2km square,
// duplicating ~10% of them exactly so NN/k-NN distance ties actually occur.
func randomDataset(rng *rand.Rand, n int) *dataset.Dataset {
	const side = 2000.0
	segs := make([]geom.Segment, 0, n)
	for len(segs) < n {
		if len(segs) > 0 && rng.Float64() < 0.10 {
			segs = append(segs, segs[rng.Intn(len(segs))]) // exact duplicate: forced tie
			continue
		}
		a := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		ang := rng.Float64() * 2 * math.Pi
		l := 10 + rng.Float64()*120
		segs = append(segs, geom.Segment{A: a, B: geom.Point{X: a.X + l*math.Cos(ang), Y: a.Y + l*math.Sin(ang)}})
	}
	ext := geom.EmptyRect()
	for _, s := range segs {
		ext = ext.Union(s.MBR())
	}
	return &dataset.Dataset{Name: "quick", Segments: segs, RecordBytes: 32, Extent: ext}
}

func randomWindow(rng *rand.Rand, ext geom.Rect) geom.Rect {
	cx := ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X)
	cy := ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y)
	hw := rng.Float64() * (ext.Max.X - ext.Min.X) / 4
	hh := rng.Float64() * (ext.Max.Y - ext.Min.Y) / 4
	return geom.Rect{Min: geom.Point{X: cx - hw, Y: cy - hh}, Max: geom.Point{X: cx + hw, Y: cy + hh}}
}

// randomPoint picks either a uniform point or an exact segment endpoint (so
// point queries hit and distance-zero NN cases appear).
func randomPoint(rng *rand.Rand, ext geom.Rect, ds *dataset.Dataset) geom.Point {
	if rng.Intn(2) == 0 && ds.Len() > 0 {
		s := ds.Seg(uint32(rng.Intn(ds.Len())))
		if rng.Intn(2) == 0 {
			return s.A
		}
		return s.B
	}
	return geom.Point{
		X: ext.Min.X + rng.Float64()*(ext.Max.X-ext.Min.X),
		Y: ext.Min.Y + rng.Float64()*(ext.Max.Y-ext.Min.Y),
	}
}

// sameDistances compares two k-NN answers by their distance sequences: same
// length, ascending, and pairwise exactly equal. Ids are compared only where
// the distance is unique within the answer (ties may legitimately resolve to
// different duplicate segments on the two paths).
func sameDistances(ds *dataset.Dataset, pt geom.Point, a, b []rtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
		if i > 0 && (a[i].Dist < a[i-1].Dist || b[i].Dist < b[i-1].Dist) {
			return false // not ascending
		}
		// Distances must be honest: recompute from the dataset.
		if ds.Seg(a[i].ID).DistToPoint(pt) != a[i].Dist || ds.Seg(b[i].ID).DistToPoint(pt) != b[i].Dist {
			return false
		}
	}
	return true
}
