package rtree

import (
	"slices"
	"sort"
	"testing"
)

// refPairs is the pack sort's reference: items sorted by sort.Sort over
// parallel keys, as HilbertSort sorted them before the pair sort.
type refPairs struct {
	ids  []uint32
	keys []uint64
}

func (r *refPairs) Len() int           { return len(r.ids) }
func (r *refPairs) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r *refPairs) Swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}

// The input shapes the fuzzer draws keys in.
const (
	shapeRandom = iota
	shapeSorted
	shapeNearlySorted // ascending and distinct, with a few pairs swapped
	shapeReversed     // descending and distinct
	shapeEqual
	shapeSawtooth
	shapeHeapsort // heapsortKeys, whatever n
	numShapes
)

// fuzzKeys returns n keys of the given shape. The random, sorted and
// sawtooth shapes draw from an alphabet of at most 16 values, so most keys
// tie; seed draws the random keys and the nearly sorted shape's swaps.
func fuzzKeys(n int, shape uint8, alpha uint8, seed uint64) []uint64 {
	a := uint64(alpha%16) + 1
	r := xorshift(seed | 1)
	keys := make([]uint64, n)
	switch shape % numShapes {
	case shapeHeapsort:
		return slices.Clone(heapsortKeys)
	case shapeNearlySorted:
		for i := range keys {
			keys[i] = uint64(i)
		}
		for s := 0; s < 3 && n > 0; s++ {
			i, j := r.next()%uint64(n), r.next()%uint64(n)
			keys[i], keys[j] = keys[j], keys[i]
		}
		return keys
	}
	for i := range keys {
		switch shape % numShapes {
		case shapeRandom:
			keys[i] = r.next() % a
		case shapeSorted:
			keys[i] = uint64(i) * a / uint64(n)
		case shapeReversed:
			keys[i] = uint64(n - 1 - i)
		case shapeEqual:
			keys[i] = 7
		case shapeSawtooth:
			keys[i] = uint64(i) % a
		}
	}
	return keys
}

// heapsortKeys is a permutation of 0..63 on which pdqsort's partitions stay
// unbalanced until its bad-pivot budget runs out and it falls back to
// heapsort. A hill-climbing search over permutations found it.
var heapsortKeys = []uint64{
	50, 51, 54, 22, 10, 26, 0, 49, 20, 31, 60, 3, 25, 1, 18, 62,
	43, 63, 46, 12, 41, 23, 61, 21, 33, 7, 45, 42, 13, 19, 52, 4,
	30, 6, 44, 34, 5, 15, 56, 53, 9, 37, 47, 16, 27, 29, 24, 2,
	17, 59, 32, 11, 8, 35, 28, 58, 39, 14, 36, 38, 55, 48, 57, 40,
}

// checkPairSort sorts keys three ways — sort.Sort over (id, key), the pair
// sort on one goroutine and the pair sort on four — and fails unless all
// three give the same permutation. It returns the four-goroutine sort's
// split count.
func checkPairSort(t *testing.T, keys []uint64) int {
	t.Helper()
	ref := &refPairs{ids: make([]uint32, len(keys)), keys: slices.Clone(keys)}
	ps := make([]keySlot, len(keys))
	for i, k := range keys {
		ref.ids[i] = uint32(i)
		ps[i] = keySlot{key: k, slot: uint32(i)}
	}
	one := slices.Clone(ps)
	sort.Sort(ref)
	sortPairs(one, 1)
	split := sortPairs(ps, 4)
	for i := range keys {
		if one[i].slot != ref.ids[i] {
			t.Fatalf("n=%d: slot %d holds input %d on one goroutine, sort.Sort puts %d there", len(keys), i, one[i].slot, ref.ids[i])
		}
		if ps[i] != one[i] {
			t.Fatalf("n=%d: slot %d holds input %d after %d splits, %d on one goroutine", len(keys), i, ps[i].slot, split, one[i].slot)
		}
	}
	return split
}

// FuzzHilbertSortMatchesSortSort: the pack sort gives sort.Sort's
// permutation over the same keys, ties included, and a sort split across
// goroutines gives the one-goroutine permutation. Keys come from a tiny
// alphabet, so most of them tie; the seeds put sorted, nearly sorted,
// reversed, all-equal, sawtooth and heapsort-forcing inputs at lengths
// around the split size, so the insertion, partial-insertion, heapsort,
// pattern-breaking and equal-partition paths all run.
func FuzzHilbertSortMatchesSortSort(f *testing.F) {
	for _, n := range []uint16{0, 1, 13, 60, splitMin - 1, splitMin + 1, 2*splitMin + 3, 5 * splitMin} {
		for shape := uint8(0); shape < numShapes; shape++ {
			f.Add(n, shape, uint8(3), uint64(n)+uint64(shape))
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, shape, alpha uint8, seed uint64) {
		checkPairSort(t, fuzzKeys(int(n), shape, alpha, seed))
	})
}

// TestPairSortSplits: a long tie-heavy input is split across goroutines,
// and still sorts to sort.Sort's permutation.
func TestPairSortSplits(t *testing.T) {
	if split := checkPairSort(t, fuzzKeys(1<<16, shapeRandom, 15, 1)); split == 0 {
		t.Fatal("a 65 536-pair sort on four goroutines never split")
	}
}
