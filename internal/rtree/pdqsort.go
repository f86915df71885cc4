// The pack sort: Go's pdqsort (sort/zsortinterface.go, Copyright 2022 The
// Go Authors, BSD-style license) specialised to (key, slot) pairs. Every
// function keeps the template's pivot choice, partitions, insertion and
// heap fallbacks and pattern-breaking, with Less an inline key compare and
// Swap a 16-byte pair swap, so it makes the moves sort.Sort makes over the
// same keys: the same permutation, tied keys included.
//
// The one addition is the split. After a partition the template recurses
// into the smaller side and loops on the larger; here a smaller side of at
// least splitMin pairs runs on another goroutine while the sort has one of
// its GOMAXPROCS−1 spare slots free. The two sides are disjoint, and what
// pdqsort does to a side depends only on that side's pairs, its limit and
// the pair just left of it (a pivot or an equal run, placed before the
// split and never moved again), so the permutation is the same however the
// sides are scheduled.

package rtree

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// keySlot is one item's place in the pack sort: its Hilbert key and its
// position in the unsorted input.
type keySlot struct {
	key  uint64
	slot uint32
}

// splitMin is the smallest side the sort hands to another goroutine: a
// few hundred microseconds of sorting, against a goroutine's microsecond.
const splitMin = 1 << 13

// pairSort is one sort's split state.
type pairSort struct {
	free  atomic.Int32 // spare goroutine slots
	split atomic.Int32 // sides sorted on another goroutine
	wg    sync.WaitGroup
}

// sortPairs sorts ps by key, exactly as sort.Sort would, on up to procs
// goroutines (GOMAXPROCS, outside tests); it returns how many sides it
// handed to another one.
func sortPairs(ps []keySlot, procs int) int {
	n := len(ps)
	if n <= 1 {
		return 0
	}
	var s pairSort
	s.free.Store(int32(procs - 1))
	s.pdqsort(ps, 0, n, bits.Len(uint(n)))
	s.wg.Wait()
	return int(s.split.Load())
}

// side sorts data[a:b], on another goroutine when it is long enough and a
// slot is free.
func (s *pairSort) side(data []keySlot, a, b, limit int) {
	if b-a >= splitMin && s.take() {
		s.split.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.pdqsort(data, a, b, limit)
			s.free.Add(1)
		}()
		return
	}
	s.pdqsort(data, a, b, limit)
}

// take claims a spare slot if one is free.
func (s *pairSort) take() bool {
	for {
		f := s.free.Load()
		if f <= 0 {
			return false
		}
		if s.free.CompareAndSwap(f, f-1) {
			return true
		}
	}
}

// pdqsort sorts data[a:b]; limit is the number of bad pivots allowed before
// heapsort.
func (s *pairSort) pdqsort(data []keySlot, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortPairs(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortPairs(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, break patterns.
		if !wasBalanced {
			breakPatternsPairs(data, a, b)
			limit--
		}

		pivot, hint := choosePivotPairs(data, a, b)
		if hint == decreasingHint {
			reverseRangePairs(data, a, b)
			// The pivot was pivot-a elements after the start; after the
			// reversal it is pivot-a elements before the end.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortPairs(data, a, b) {
				return
			}
		}

		// Probably many duplicates: split into elements equal to and
		// greater than the pivot.
		if a > 0 && !(data[a-1].key < data[pivot].key) {
			mid := partitionEqualPairs(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionPairs(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			s.side(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			s.side(data, mid+1, b, limit)
			b = mid
		}
	}
}

// insertionSortPairs sorts data[a:b] by insertion.
func insertionSortPairs(data []keySlot, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && data[j].key < data[j-1].key; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownPairs restores the heap property on data[lo:hi]; first is the
// offset of the heap's root in data.
func siftDownPairs(data []keySlot, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && data[first+child].key < data[first+child+1].key {
			child++
		}
		if !(data[first+root].key < data[first+child].key) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortPairs(data []keySlot, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build a heap with the greatest element at the top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownPairs(data, i, hi, first)
	}

	// Pop elements, largest first, into the end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownPairs(data, lo, i, first)
	}
}

// partitionPairs does one quicksort partition around p = data[pivot]: on
// return data[i] < p for i < newpivot, data[j] >= p for j > newpivot and
// data[newpivot] = p.
func partitionPairs(data []keySlot, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // inclusive bounds of what is left to partition

	for i <= j && data[i].key < data[a].key {
		i++
	}
	for i <= j && !(data[j].key < data[a].key) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && data[i].key < data[a].key {
			i++
		}
		for i <= j && !(data[j].key < data[a].key) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualPairs partitions data[a:b], which holds nothing below
// data[pivot], into the elements equal to data[pivot] followed by the
// greater ones.
func partitionEqualPairs(data []keySlot, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // inclusive bounds of what is left to partition

	for {
		for i <= j && !(data[a].key < data[i].key) {
			i++
		}
		for i <= j && data[a].key < data[j].key {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortPairs partially sorts data[a:b] and reports whether
// it ended sorted. Like the template, its leftward shift stops at index 1,
// not a+1; it reads data[a-1] but never moves it, since nothing in
// data[a:b] is below it.
func partialInsertionSortPairs(data []keySlot, a, b int) bool {
	const (
		maxSteps         = 5  // adjacent out-of-order pairs shifted at most
		shortestShifting = 50 // no shifting on short slices
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].key < data[i-1].key) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].key < data[j-1].key) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].key < data[j-1].key) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsPairs scatters three elements of data[a:b] to break
// patterns that would unbalance the partitions. The scatter is seeded
// from the length alone.
func breakPatternsPairs(data []keySlot, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

type sortedHint int // pdqsort's hint for the pivot choice

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift is Marsaglia's generator, as the template seeds it.
type xorshift uint64

func (r *xorshift) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << uint(bits.Len(uint(length)))
}

// choosePivotPairs chooses a pivot in data[a:b]: a static one below 8
// elements, the median of three below 50, Tukey's ninther above.
func choosePivotPairs(data []keySlot, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			i = medianAdjacentPairs(data, i, &swaps)
			j = medianAdjacentPairs(data, j, &swaps)
			k = medianAdjacentPairs(data, k, &swaps)
		}
		// The median of i, j, k, into j.
		j = medianPairs(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Pairs returns x, y with data[x] <= data[y], where x, y is a, b or
// b, a.
func order2Pairs(data []keySlot, a, b int, swaps *int) (int, int) {
	if data[b].key < data[a].key {
		*swaps++
		return b, a
	}
	return a, b
}

// medianPairs returns the index of the median of data[a], data[b], data[c].
func medianPairs(data []keySlot, a, b, c int, swaps *int) int {
	a, b = order2Pairs(data, a, b, swaps)
	b, c = order2Pairs(data, b, c, swaps)
	a, b = order2Pairs(data, a, b, swaps)
	return b
}

// medianAdjacentPairs returns the index of the median of data[a-1],
// data[a], data[a+1].
func medianAdjacentPairs(data []keySlot, a int, swaps *int) int {
	return medianPairs(data, a-1, a, a+1, swaps)
}

func reverseRangePairs(data []keySlot, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
