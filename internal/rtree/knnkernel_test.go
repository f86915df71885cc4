package rtree_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// flatKNN is the k-NN oracle: every item not skipped, at its distance under
// dist, sorted in the Before order, cut at k. An item at +Inf or NaN is no
// neighbor.
func flatKNN(items []rtree.Item, k int, dist func(rtree.Item) float64, skip func(uint32) bool) []rtree.Neighbor {
	var all []rtree.Neighbor
	for _, it := range items {
		if d := dist(it); d < math.Inf(1) && (skip == nil || !skip(it.ID)) {
			all = append(all, rtree.Neighbor{ID: it.ID, Dist: d, Seg: it.Seg()})
		}
	}
	slices.SortFunc(all, func(a, b rtree.Neighbor) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		}
		return 0
	})
	return all[:min(k, len(all))]
}

// segDist is the distance every leaf-refined k-NN admits by.
func segDist(p geom.Point) func(rtree.Item) float64 {
	return func(it rtree.Item) float64 { return it.Seg().DistToPoint(p) }
}

// firstDiff returns the first index where a and b differ, bit for bit (a
// -0/+0 difference counts), or -1 when they are equal.
func firstDiff(a, b []rtree.Neighbor) int {
	for i := range min(len(a), len(b)) {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at renders nbs[i] for a failure message.
func at(nbs []rtree.Neighbor, i int) string {
	if i < len(nbs) {
		return fmt.Sprintf("%+v", nbs[i])
	}
	return "none"
}

// tieWorld is a map built for exact distance ties: segments between points
// of a 24×24 integer grid, one in four a duplicate of an earlier one under a
// new id, one in eight of zero length, and every segment sharing its A end
// with its predecessor's B.
func tieWorld(n int, seed int64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	grid := func() geom.Point { return geom.Point{X: float64(rng.Intn(24)), Y: float64(rng.Intn(24))} }
	segs := make([]geom.Segment, 0, n)
	for len(segs) < n {
		var s geom.Segment
		switch {
		case len(segs) > 0 && rng.Intn(4) == 0:
			s = segs[rng.Intn(len(segs))]
		case rng.Intn(8) == 0:
			p := grid()
			s = geom.Segment{A: p, B: p}
		case len(segs) > 0:
			s = geom.Segment{A: segs[len(segs)-1].B, B: grid()}
		default:
			s = geom.Segment{A: grid(), B: grid()}
		}
		segs = append(segs, s)
	}
	items := make([]rtree.Item, n)
	for i, s := range segs {
		items[i] = rtree.SegItem(s, uint32(i))
	}
	return items
}

// knnPoints returns query points of every kind the kernel must get right:
// uniform over the extent, on segment endpoints, on item MBR edges and
// corners, and far outside the extent (one far enough that squared
// distances overflow).
func knnPoints(items []rtree.Item, bounds geom.Rect, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := []geom.Point{
		{X: bounds.Max.X + 1e6, Y: bounds.Min.Y - 1e6},
		{X: bounds.Min.X - 3*(bounds.Max.X-bounds.Min.X), Y: bounds.Center().Y},
	}
	for len(out) < n-1 {
		m := items[rng.Intn(len(items))].MBR
		switch rng.Intn(4) {
		case 0:
			out = append(out, geom.Point{
				X: bounds.Min.X + rng.Float64()*(bounds.Max.X-bounds.Min.X),
				Y: bounds.Min.Y + rng.Float64()*(bounds.Max.Y-bounds.Min.Y),
			})
		case 1:
			s := items[rng.Intn(len(items))].Seg()
			out = append(out, s.A, s.B)
		case 2: // the middle of an MBR edge
			out = append(out, geom.Point{X: m.Min.X, Y: (m.Min.Y + m.Max.Y) / 2}, geom.Point{X: (m.Min.X + m.Max.X) / 2, Y: m.Max.Y})
		default: // the MBR corners no segment end sits on
			out = append(out, geom.Point{X: m.Min.X, Y: m.Max.Y}, geom.Point{X: m.Max.X, Y: m.Min.Y})
		}
	}
	return append(out, geom.Point{X: 1e200, Y: -1e200})
}

// TestKNNKernelMatchesFlatOracle: every k-NN through the kernel — one
// KNearestCollect, one with a skip mask, and a fold of two trees into an
// accumulator a flat offer pre-seeded — returns exactly the first k of a
// (distance, id) sort of every item, ids and distances bit for bit, on PA and
// on a tie-heavy grid world, at the default node size and at NodeBytes 2048.
func TestKNNKernelMatchesFlatOracle(t *testing.T) {
	pa := dataset.PA()
	// k = n and n + 5 take every item, so they run on the tie worlds: on
	// PA each would fill and drain a 139 006-neighbor heap.
	const all = -1
	worlds := []struct {
		name      string
		items     []rtree.Item
		nodeBytes int
		points    int
		ks        []int
	}{
		{"ties", tieWorld(3000, 1), 0, 60, []int{1, 2, 8, 64, all}},
		{"ties", tieWorld(3000, 2), 2048, 60, []int{1, 2, 8, 64, all}},
		{"PA", pa.Items(), 0, 16, []int{1, 2, 8, 64}},
	}
	for _, w := range worlds {
		{
			name := fmt.Sprintf("%s/node=%d", w.name, w.nodeBytes)
			cfg := rtree.Config{NodeBytes: w.nodeBytes}
			tr, err := rtree.Build(w.items, cfg, ops.Null{})
			if err != nil {
				t.Fatal(err)
			}
			// The fold: a third of the items offered flat, the rest split
			// between two trees by id.
			var offered, partA, partB []rtree.Item
			for _, it := range w.items {
				switch it.ID % 3 {
				case 0:
					offered = append(offered, it)
				case 1:
					partA = append(partA, it)
				default:
					partB = append(partB, it)
				}
			}
			trA, errA := rtree.Build(partA, cfg, ops.Null{})
			trB, errB := rtree.Build(partB, cfg, ops.Null{})
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			n := len(w.items)
			ks := w.ks
			if ks[len(ks)-1] == all {
				ks = append(ks[:len(ks)-1:len(ks)-1], n, n+5)
			}
			skip := func(id uint32) bool { return id%5 == 2 }
			var sc rtree.NNScratch
			var got []rtree.Neighbor
			for qi, p := range knnPoints(w.items, tr.Bounds(), w.points, int64(len(w.items))) {
				all := flatKNN(w.items, n, segDist(p), nil)
				allSkip := flatKNN(w.items, n, segDist(p), skip)
				for _, k := range ks {
					fail := func(what string, want []rtree.Neighbor) {
						t.Helper()
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("%s point %d %v k=%d: %s: %d neighbors, oracle %d; at %d got %s, want %s",
								name, qi, p, k, what, len(got), len(want), i, at(got, i), at(want, i))
						}
					}
					want := all[:min(k, n)]
					sc.ResetKNN()
					tr.KNearestCollect(p, k, nil, &sc, nil)
					got = sc.DrainKNNAppend(got[:0])
					fail("KNearestCollect", want)

					sc.ResetKNN()
					tr.KNearestCollect(p, k, skip, &sc, nil)
					got = sc.DrainKNNAppend(got[:0])
					fail("skip", allSkip[:min(k, len(allSkip))])

					sc.ResetKNN()
					for _, it := range offered {
						sc.KNNOffer(k, rtree.Neighbor{ID: it.ID, Dist: it.Seg().DistToPoint(p), Seg: it.Seg()})
					}
					trA.KNearestCollect(p, k, nil, &sc, nil)
					trB.KNearestCollect(p, k, nil, &sc, nil)
					got = sc.DrainKNNAppend(got[:0])
					fail("pre-seeded two-tree fold", want)
				}
			}
		}
	}
}

// TestKNNKernelTalliesTheTracedWalk: handed an ops.Counts, the k-NN kernel
// tallies what the traced walk (KNearest) records for the same query, field
// for field, and returns as its candidates the distances that walk asked
// for, on PA's and NYC's seeded NN queries at k 1 to 32. The one difference
// is an equal-distance neighbor that the kernel's Before order admits and
// the traced walk's strict < refuses, a push and a pop each: on a query
// whose traced walk was asked for two equal distances, the kernel may count
// a non-negative even number of heap operations more.
func TestKNNKernelTalliesTheTracedWalk(t *testing.T) {
	for _, ds := range []*dataset.Dataset{dataset.PA(), dataset.NYC()} {
		tr, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			t.Fatal(err)
		}
		var sc rtree.NNScratch
		for _, k := range []int{1, 2, 4, 8, 32} {
			ties := 0
			for qi, p := range dataset.NNQueries(ds, 200, 1) {
				var want, got ops.Counts
				asked, tied, seen := 0, false, map[float64]bool{}
				tr.KNearest(p, k, func(id uint32) float64 {
					d := ds.Seg(id).DistToPoint(p)
					asked++
					tied = tied || seen[d]
					seen[d] = true
					return d
				}, &want)
				sc.ResetKNN()
				cands := tr.KNearestCollect(p, k, nil, &sc, &got)
				if extra := got.Ops[ops.OpHeapOp] - want.Ops[ops.OpHeapOp]; tied && extra > 0 && extra%2 == 0 {
					got.Ops[ops.OpHeapOp] = want.Ops[ops.OpHeapOp]
					ties++
				}
				if got != want || cands != asked {
					t.Fatalf("%s query %d %v k=%d: kernel tallied %d candidates and\n %+v\nthe traced walk asked %d distances and records\n %+v",
						ds.Name, qi, p, k, cands, got, asked, want)
				}
			}
			t.Logf("%s k=%d: %d of 200 queries admitted an equal-distance neighbor the traced walk refused", ds.Name, k, ties)
		}
	}
}

// FuzzKNNKernel: on a small set of grid-snapped segments (duplicates and
// zero-length ones come up often) at a small fanout, the kernel answers a
// random point and k exactly as a (distance, id) sort of every item does.
func FuzzKNNKernel(f *testing.F) {
	f.Add([]byte{0, 0, 4, 4, 0, 0, 4, 4, 2, 2, 2, 2, 9, 1, 3, 7}, 2.0, 2.0, uint8(3), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, -5.0, 40.0, uint8(5), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 7.0, 7.0, uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, px, py float64, kRaw, fanRaw uint8) {
		var items []rtree.Item
		for i := 0; i+4 <= len(raw) && len(items) < 200; i += 4 {
			c := func(b byte) float64 { return float64(b % 16) }
			s := geom.Segment{A: geom.Point{X: c(raw[i]), Y: c(raw[i+1])}, B: geom.Point{X: c(raw[i+2]), Y: c(raw[i+3])}}
			// Ids are distinct but out of build order.
			items = append(items, rtree.SegItem(s, uint32(len(items))*2654435761))
		}
		if len(items) == 0 {
			return
		}
		cfg := rtree.Config{NodeBytes: rtree.HeaderBytes + rtree.EntryBytes*(2+int(fanRaw%6))}
		tr, err := rtree.Build(items, cfg, ops.Null{})
		if err != nil {
			t.Fatal(err)
		}
		p := geom.Point{X: px, Y: py}
		k := 1 + int(kRaw)%(len(items)+3)
		want := flatKNN(items, k, segDist(p), nil)
		var sc rtree.NNScratch
		tr.KNearestCollect(p, k, nil, &sc, nil)
		if got := sc.DrainKNNAppend(nil); firstDiff(got, want) >= 0 {
			t.Fatalf("%d items, fanout %d, p=%v k=%d:\n got  %v\n want %v", len(items), 2+fanRaw%6, p, k, got, want)
		}
	})
}
