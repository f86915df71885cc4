// order.go: the answer order contract. A point, range or filter answer
// leaves the server ascending by id, each id once; a k-NN answer leaves it
// nearest first. The id order is what makes the wire's run coding pay
// (proto/lists.go): a street's segments are numbered in order, so a sorted
// answer is a few runs of consecutive ids. An engine walk reports ids in tree
// order, so read sorts each engine answer once; a cache entry is stored
// sorted, and its refinement keeps the order, so a hit needs no sort.
package serve

import (
	"math/bits"
	"slices"
)

const (
	// insertionMax is the list length up to which sortIDs uses an insertion
	// sort: below it the bitmap's summary scan costs more than the
	// comparisons.
	insertionMax = 32
	// bitmapIDs bounds the ids the bitmap holds, and with it the bitmap, to
	// 512 KB; every dataset this repository generates numbers its segments
	// far below it. A list holding a larger id is sorted by comparison.
	bitmapIDs = 1 << 22
)

// idSorter is sortIDs' state, held in the request scratch. words has bit
// id%64 of word id/64 set for every id of the list being sorted, and sum bit
// w%64 of word w/64 set for every non-zero words[w]; both are all zero
// between calls, and grow to the largest id seen, once.
type idSorter struct {
	words, sum []uint64
}

// sortIDs sorts ids ascending and drops repeats, in place and without
// allocating once warm. The ids are set in the bitmap and read back in
// order, visiting only the words the summary marks: O(n) plus one summary
// word per 4096 ids of the id space, 34 words for PA. It returns at once when
// the ids are already strictly ascending, as a cache entry's refinement and a
// router's merged answer are. On a 2-core Xeon it sorts PA's range answers
// (813 ids on average) in about 60 % of an LSD radix sort's time.
func (s *idSorter) sortIDs(ids []uint32) []uint32 {
	i := 1
	for i < len(ids) && ids[i] > ids[i-1] {
		i++
	}
	if i >= len(ids) {
		return ids
	}
	if len(ids) <= insertionMax {
		for ; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		return slices.Compact(ids)
	}
	words, sum := s.words, s.sum
	for i, v := range ids {
		w := int(v >> 6)
		if w >= len(words) {
			if v >= bitmapIDs {
				s.unset(ids[:i])
				slices.Sort(ids)
				return slices.Compact(ids)
			}
			s.grow(w)
			words, sum = s.words, s.sum
		}
		words[w] |= 1 << (v & 63)
		sum[w>>6] |= 1 << (w & 63)
	}
	k := 0
	for si, sw := range sum {
		if sw == 0 {
			continue
		}
		sum[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := si<<6 | bits.TrailingZeros64(sw)
			x := words[w]
			words[w] = 0
			for ; x != 0; x &= x - 1 {
				ids[k] = uint32(w)<<6 | uint32(bits.TrailingZeros64(x))
				k++
			}
		}
	}
	return ids[:k]
}

// grow makes the bitmap hold word w, keeping it all zero.
func (s *idSorter) grow(w int) {
	n := min(max(w+1, 2*len(s.words)), bitmapIDs>>6)
	s.words = append(s.words, make([]uint64, n-len(s.words))...)
	s.sum = append(s.sum, make([]uint64, (n+63)/64-len(s.sum))...)
}

// unset clears the bits of ids, returning the bitmap to all zero.
func (s *idSorter) unset(ids []uint32) {
	for _, v := range ids {
		s.words[v>>6] = 0
		s.sum[v>>12] = 0
	}
}
