package shard

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/hilbert/hilbertref"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// TestPartitionHilbertCoversExactly checks the partition is a partition:
// every item lands in exactly one range, ranges are contiguous and ordered
// by Hilbert key, and the per-range MBRs contain their items.
func TestPartitionHilbertCoversExactly(t *testing.T) {
	ds := dataset.PA()
	items := ds.Items()
	const n = 7
	ranges, bounds := PartitionHilbert(items, n, 0)
	if len(ranges) != n {
		t.Fatalf("got %d ranges, want %d", len(ranges), n)
	}
	if bounds.IsEmpty() {
		t.Fatal("empty bounds for a non-empty dataset")
	}
	seen := make(map[uint32]int)
	total := 0
	var prevHi uint64
	for i, r := range ranges {
		if r.Index != i {
			t.Fatalf("range %d has index %d", i, r.Index)
		}
		if len(r.Items) == 0 {
			t.Fatalf("range %d is empty", i)
		}
		if r.Lo > r.Hi {
			t.Fatalf("range %d inverted keys [%d, %d]", i, r.Lo, r.Hi)
		}
		if i > 0 && r.Lo < prevHi {
			t.Fatalf("range %d lo %d < previous hi %d", i, r.Lo, prevHi)
		}
		prevHi = r.Hi
		for _, it := range r.Items {
			if prev, dup := seen[it.ID]; dup {
				t.Fatalf("item %d in ranges %d and %d", it.ID, prev, i)
			}
			seen[it.ID] = i
			if !r.MBR.ContainsRect(it.MBR) {
				t.Fatalf("range %d MBR %v misses item %d MBR %v", i, r.MBR, it.ID, it.MBR)
			}
		}
		total += len(r.Items)
	}
	if total != len(items) {
		t.Fatalf("partition covers %d of %d items", total, len(items))
	}
}

// TestPartitionHilbertDeterministic pins the cross-process contract: two
// independent partitions of the same dataset produce identical ranges.
func TestPartitionHilbertDeterministic(t *testing.T) {
	ds := dataset.PA()
	a, _ := PartitionHilbert(ds.Items(), 5, 0)
	b, _ := PartitionHilbert(ds.Items(), 5, 0)
	for i := range a {
		if a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi || len(a[i].Items) != len(b[i].Items) || a[i].MBR != b[i].MBR {
			t.Fatalf("range %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Items {
			if a[i].Items[j].ID != b[i].Items[j].ID {
				t.Fatalf("range %d item %d differs: %d vs %d", i, j, a[i].Items[j].ID, b[i].Items[j].ID)
			}
		}
	}
}

// TestPartitionHilbertPinnedToReference cuts PA into the cluster's three
// ranges and checks every range's Lo, Hi and item count against keys from
// the bit-serial reference encoder: the cuts every backend and router derive
// on their own must not move when the key kernel changes.
func TestPartitionHilbertPinnedToReference(t *testing.T) {
	items := dataset.PA().Items()
	const n = 3
	q := QuantizerFor(BoundsOf(items), 0)
	keys := make([]uint64, len(items))
	for i, it := range items {
		c := it.MBR.Center()
		cx, cy := q.Cell(c.X, c.Y)
		keys[i] = hilbertref.Encode(hilbert.Order, cx, cy)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	ranges, _ := PartitionHilbert(items, n, 0)
	if len(ranges) != n {
		t.Fatalf("got %d ranges, want %d", len(ranges), n)
	}
	chunk := (len(keys) + n - 1) / n
	for i, r := range ranges {
		lo, hi := i*chunk, min((i+1)*chunk, len(keys))
		if r.Lo != keys[lo] || r.Hi != keys[hi-1] || len(r.Items) != hi-lo {
			t.Errorf("range %d: [%d, %d] with %d items, reference [%d, %d] with %d",
				i, r.Lo, r.Hi, len(r.Items), keys[lo], keys[hi-1], hi-lo)
		}
	}
}

// TestHoldMatchesRotationPlacement: Cut then Hold is PartitionHilbert then
// ReplicaRanges, for every backend at every replica count — held order
// (primary first), items, cuts, bounds and every field of every row — and
// the rotation placement: range g on exactly the R backends g, g+1, …,
// g+R−1 mod N. It refuses what a cluster cannot be built from.
func TestHoldMatchesRotationPlacement(t *testing.T) {
	ds := fixture(t, 2000)
	for _, n := range []int{1, 3, 5} {
		part := Cut(ds.Items(), n)
		ref, bounds := PartitionHilbert(ds.Items(), n, 0)
		cuts := make([]uint64, n)
		for i, rg := range ref {
			cuts[i] = rg.Lo
		}
		for r := 1; r <= n; r++ {
			for b := 0; b < n; b++ {
				held, err := part.Hold(b, r)
				idxs, _ := ReplicaRanges(b, n, r)
				want := Held{Cuts: cuts, Bounds: bounds}
				var items []rtree.Item
				var rows []proto.RangeInfo
				for _, ri := range idxs {
					rg := ref[ri]
					want.Ranges = append(want.Ranges, rg)
					items = append(items, rg.Items...)
					rows = append(rows, proto.RangeInfo{Index: uint32(rg.Index), Items: uint32(len(rg.Items)), Lo: rg.Lo, Hi: rg.Hi, MBR: rg.MBR})
				}
				if err != nil || len(held.Ranges) != r || !reflect.DeepEqual(held, want) {
					t.Errorf("n=%d R=%d: Hold(%d) rows %+v, %v; want ranges %v of the reference", n, r, b, held.Rows(), err, idxs)
				}
				for j, rg := range held.Ranges {
					if rg.Index != (b-j+n)%n {
						t.Errorf("n=%d R=%d: backend %d holds range %d at %d, not the rotation's %d", n, r, b, rg.Index, j, (b-j+n)%n)
					}
				}
				if held.Len() != len(items) || !slices.Equal(held.Rows(), rows) {
					t.Errorf("n=%d R=%d backend %d: items or rows differ from the reference's", n, r, b)
				}
			}
		}
	}

	three := Cut(ds.Items(), 3)
	for want, err := range map[string]error{
		"backend 0 outside [0, 0)":  second(Cut(ds.Items(), 0).Hold(0, 1)),
		"only 2 of 3 ranges":        second(Cut(ds.Items()[:2], 3).Hold(0, 1)),
		"only 0 of 1 ranges":        second(Cut(nil, 1).Hold(0, 1)),
		"backend -1 outside [0, 3)": second(three.Hold(-1, 1)),
		"backend 3 outside [0, 3)":  second(three.Hold(3, 1)),
		"replicas 0 outside [1, 3]": second(three.Hold(0, 0)),
		"replicas 4 outside [1, 3]": second(three.Hold(0, 4)),
		"backend 7 outside [0, 5)":  second(ReplicaRanges(7, 5, 2)),
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("got %v, want an error naming %q", err, want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// TestOrderByMinDist checks the exported visit ordering: ascending by
// MINDIST, stable on ties.
func TestOrderByMinDist(t *testing.T) {
	rects := []geom.Rect{
		{Min: geom.Point{X: 10, Y: 0}, Max: geom.Point{X: 20, Y: 10}},  // dist 10
		{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 5, Y: 5}},     // dist 0
		{Min: geom.Point{X: -20, Y: 0}, Max: geom.Point{X: -10, Y: 5}}, // dist 10 (tie)
	}
	got := OrderByMinDist(nil, rects, geom.Point{X: 0, Y: 0})
	want := []int32{1, 0, 2} // tie between 0 and 2 keeps index order
	for i, sd := range got {
		if sd.Index != want[i] {
			t.Fatalf("position %d: got index %d want %d (order %+v)", i, sd.Index, want[i], got)
		}
	}
	if got[0].Dist != 0 || got[1].Dist != 10 || got[2].Dist != 10 {
		t.Fatalf("distances wrong: %+v", got)
	}
}

// TestKNearestBoundedAppend checks the external bound never costs recall:
// with any bound at least the true k-th distance, the bounded answer equals
// the unbounded one; with bound +Inf they are identical by construction.
func TestKNearestBoundedAppend(t *testing.T) {
	ds := dataset.PA()
	p, err := New(ds, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rng := rand.New(rand.NewSource(42))
	b := ds.Items()
	_ = b
	bounds := p.Bounds()
	for trial := 0; trial < 50; trial++ {
		pt := geom.Point{
			X: bounds.Min.X + rng.Float64()*bounds.Width(),
			Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
		}
		k := 1 + rng.Intn(8)
		want, _ := p.KNearestAppend(nil, pt, k, nil)
		got, _ := p.KNearestBoundedAppend(nil, pt, k, math.Inf(1), nil)
		if !neighborsEqual(want, got) {
			t.Fatalf("bound=+Inf differs: want %v got %v", want, got)
		}
		if len(want) == 0 {
			continue
		}
		kth := want[len(want)-1].Dist
		got, _ = p.KNearestBoundedAppend(nil, pt, k, kth+1e-9, nil)
		// A finite bound >= the k-th distance must preserve every true
		// neighbor at distance < bound (farther entries may legally appear
		// or not — the bound is a hint). Check the prefix below the bound.
		for i, nb := range want {
			if nb.Dist >= kth {
				break
			}
			if i >= len(got) || got[i].ID != nb.ID || got[i].Dist != nb.Dist {
				t.Fatalf("bounded answer lost neighbor %v: got %v want %v", nb, got, want)
			}
		}
	}
}

func neighborsEqual(a, b []rtree.Neighbor) bool {
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
