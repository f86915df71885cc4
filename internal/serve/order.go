// order.go: the answer order contract. A point, range or filter answer
// leaves the server ascending by id, each id once; a k-NN answer leaves it
// nearest first. The id order is what makes the wire's run coding pay
// (proto/lists.go): a street's segments are numbered in order, so a sorted
// answer is a few runs of consecutive ids. An engine walk reports ids in tree
// order, so read sorts each engine answer once — a records answer as it
// builds the records, each placed at its id's rank; a cache entry is stored
// sorted, and its refinement keeps the order, so a hit needs no sort.
package serve

import (
	"math/bits"
	"slices"
	"sort"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
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

// idSorter is the state of sortIDs and appendRecords, held in the request
// scratch. words has bit id%64 of word id/64 set for every id of the list
// being sorted, and sum bit w%64 of word w/64 set for every non-zero
// words[w]; both are all zero between calls, and grow to the largest id
// seen, once. rank[w] is, while records are placed, the number of ids below
// word w's.
type idSorter struct {
	words, sum []uint64
	rank       []uint32
}

// sortIDs sorts ids ascending and drops repeats, in place and without
// allocating once warm. The ids are set in the bitmap and read back in
// order, visiting only the words the summary marks: O(n) plus one summary
// word per 4096 ids of the id space, 34 words for PA. A word is read a run of
// consecutive ids at a time (two trailing-zero counts each), and a run is
// written with block stores, so the read-out costs per run, not per id: a
// street's segments are numbered in order, and a PA range answer is ~8 ids a
// run. It returns at once when the ids are already strictly ascending, as a
// cache entry's refinement and a router's merged answer are.
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
	if !s.mark(ids) {
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	words, sum := s.words, s.sum
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
			for x != 0 {
				lo := bits.TrailingZeros64(x)
				n := bits.TrailingZeros64(^(x >> lo)) // 64 when the run fills the word
				putRun(ids, k, n, uint32(w)<<6|uint32(lo))
				k += n
				x &^= 1<<(lo+n) - 1 // a shift of 64 clears every bit
			}
		}
	}
	return ids[:k]
}

// putRun writes the n ids v, v+1, ... at ids[k:]. Every id of the list is
// already marked, and the read-out writes ascending positions, so stores past
// the run's end land only where a later run writes: it stores sixteen ids
// at once while the list has room for them, then eight, as the id-list
// decoder does.
func putRun(ids []uint32, k, n int, v uint32) {
	j := 0
	if k+16 <= len(ids) {
		o := ids[k : k+16 : k+16]
		o[0], o[1], o[2], o[3] = v, v+1, v+2, v+3
		o[4], o[5], o[6], o[7] = v+4, v+5, v+6, v+7
		o[8], o[9], o[10], o[11] = v+8, v+9, v+10, v+11
		o[12], o[13], o[14], o[15] = v+12, v+13, v+14, v+15
		j = 16
	}
	for ; j < n && k+j+8 <= len(ids); j += 8 {
		o, w := ids[k+j:k+j+8:k+j+8], v+uint32(j)
		o[0], o[1], o[2], o[3] = w, w+1, w+2, w+3
		o[4], o[5], o[6], o[7] = w+4, w+5, w+6, w+7
	}
	for ; j < n; j++ {
		ids[k+j] = v + uint32(j)
	}
}

// mark sets every id in the bitmap; false, the bitmap all zero again, when
// an id lies past it.
func (s *idSorter) mark(ids []uint32) bool {
	words, sum := s.words, s.sum
	for i, v := range ids {
		w := int(v >> 6)
		if w >= len(words) {
			if v >= bitmapIDs {
				s.unset(ids[:i])
				return false
			}
			s.grow(w)
			words, sum = s.words, s.sum
		}
		words[w] |= 1 << (v & 63)
		sum[w>>6] |= 1 << (w & 63)
	}
	return true
}

// appendRecords appends to dst the records ids[i] at segs[i] ascending by
// id, each id once at the segment of its first sighting, without allocating
// once warm: the order contract for a records answer. The ids are marked in
// the bitmap as sortIDs marks them, each marked word's rank is counted, and
// every record is written straight to its id's rank in dst — the ids before
// its word plus the bits below it in the word — so the records are built
// and sorted in one pass. A list holding an id past the bitmap is sorted in
// place by comparison first.
func (s *idSorter) appendRecords(dst []proto.Record, ids []uint32, segs []geom.Segment) []proto.Record {
	i := 1
	for i < len(ids) && ids[i] > ids[i-1] {
		i++
	}
	if i >= len(ids) {
		return appendInOrder(dst, ids, segs)
	}
	if !s.mark(ids) {
		sort.Stable(records{ids, segs})
		return appendInOrder(dst, ids, segs)
	}
	words, sum, rank := s.words, s.sum, s.rank
	k := uint32(0)
	for si, sw := range sum {
		for ; sw != 0; sw &= sw - 1 {
			w := si<<6 | bits.TrailingZeros64(sw)
			rank[w] = k
			k += uint32(bits.OnesCount64(words[w]))
		}
	}
	n := len(dst)
	dst = slices.Grow(dst, int(k))[:n+int(k)]
	out := dst[n:]
	for i := len(ids) - 1; i >= 0; i-- { // backwards: the first sighting lands last
		v := ids[i]
		w := v >> 6
		out[rank[w]+uint32(bits.OnesCount64(words[w]&(1<<(v&63)-1)))] = proto.Record{ID: v, Seg: segs[i]}
	}
	for si, sw := range sum {
		sum[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			words[si<<6|bits.TrailingZeros64(sw)] = 0
		}
	}
	return dst
}

// appendInOrder appends the records ids[i] at segs[i] to dst as they come,
// a repeat of the id before it dropped.
func appendInOrder(dst []proto.Record, ids []uint32, segs []geom.Segment) []proto.Record {
	dst, segs = slices.Grow(dst, len(ids)), segs[:len(ids)]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			dst = append(dst, proto.Record{ID: id, Seg: segs[i]})
		}
	}
	return dst
}

// records sorts ids with the segments beside them.
type records struct {
	ids  []uint32
	segs []geom.Segment
}

func (r records) Len() int           { return len(r.ids) }
func (r records) Less(i, j int) bool { return r.ids[i] < r.ids[j] }
func (r records) Swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.segs[i], r.segs[j] = r.segs[j], r.segs[i]
}

// grow makes the bitmap hold word w, keeping it all zero.
func (s *idSorter) grow(w int) {
	n := min(max(w+1, 2*len(s.words)), bitmapIDs>>6)
	s.words = append(s.words, make([]uint64, n-len(s.words))...)
	s.sum = append(s.sum, make([]uint64, (n+63)/64-len(s.sum))...)
	s.rank = append(s.rank, make([]uint32, n-len(s.rank))...)
}

// unset clears the bits of ids, returning the bitmap to all zero.
func (s *idSorter) unset(ids []uint32) {
	for _, v := range ids {
		s.words[v>>6] = 0
		s.sum[v>>12] = 0
	}
}
