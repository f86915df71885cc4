// lists.go: the two list encodings every read answer travels in. A reply is
// mostly its list, and a list is mostly bytes the receiver could have
// predicted: a range answer's ids arrive ascending (the server's order
// contract) and nearly consecutive, because the generator numbers a street's
// segments in order; and a street's next segment starts where the last one
// ended, a few metres from where it began. Both codings are lossless for any
// input — any order, repeats included — and merely compact on the input they
// expect.
//
// Id list:      uvarint count, then, unless the list is empty, a uvarint
//
//	head: the first id shifted left one bit. A clear low bit makes
//	the list a single run, count consecutive ids from the first (at
//	most idRunCap). A set low bit starts a Rice list: the head's
//	next bit is set when its gaps are zigzagged (a run starts below
//	the previous run's end), the first id sits above both bits, and
//	a parameter byte follows, the gap parameter in its low five bits
//	and the length parameter in its top three. Then a little-endian
//	bitstream (its bit i is bit i%8 of byte i/8, padded to a whole
//	byte) holds the first run's length less one, then each further
//	run's gap from the previous run's end (one past its last id) and
//	its length less one. Each is a Rice code (Golomb 1966; Rice
//	1979) under its field's parameter k: v>>k zero bits, a one and
//	v's low k bits, or, where v>>k would reach riceEscape, the
//	escape: riceEscape zero bits and v raw in its field's width. A
//	run is at most idRunCap ids of consecutive values; the encoder
//	finds maximal runs and takes each parameter from its field's
//	mean. A §5.4 range answer over PA is ~0.25 B an id (~211 B for
//	~860 ids), against ~0.37 B in the byte-aligned runs, a zigzag
//	varint gap and a length byte each, that this coding replaced.
//
// Record list:  uvarint count, then per record a uvarint head — the zigzag
//
//	id delta from the previous record's id (0 before the first),
//	shifted left one bit, the low bit set when the record's A
//	endpoint is bit-identical to the previous record's B — then
//	A unless that bit is set, coded against the previous
//	record's B (the zero point before the first record), then B
//	coded against A, both in the coordinate coding of coord.go.
//	On the records of 1 km windows over PA a record is about
//	17 B, against 21 B with raw float64 endpoints.
package proto

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mobispatial/internal/geom"
)

const (
	// idRunCap is the longest run one id-list run carries. A street is 3-18
	// segments, so a range answer's runs rarely reach it.
	idRunCap = 64
	// riceEscape is the quotient at which a Rice code gives way to its
	// escape: riceEscape zero bits, then the value raw in its field's full
	// width (gapRawBits, lenRawBits). An outlier gap so costs at most
	// riceEscape + gapRawBits = 41 bits whatever the list's parameter, and
	// a run's gap and length at most 55, which one 64-bit load holds.
	riceEscape = 8
	// gapRawBits holds any gap's code: |gap| < 2^32, zigzagged below 2^33.
	gapRawBits = 33
	// lenRawBits holds a run's length minus one, below idRunCap.
	lenRawBits = 6
	// maxGapParam and maxLenParam bound the parameter byte's two fields, a
	// gap parameter in its low five bits and a length parameter in its top
	// three: a length parameter of 5 already codes every length in at most
	// seven bits, so 6 and 7 are refused.
	maxGapParam = 31
	maxLenParam = 5
	// idsPerPayloadByte is the decoder's amplification bound. A single run
	// is at most idRunCap ids behind a head of at least one byte. In a Rice
	// list the cheapest run after the first is eight bits, a one-bit gap
	// and a seven-bit length of idRunCap (length parameter 5), and the
	// first run's length is at least one bit behind the head and parameter
	// bytes, so r runs hold at most idRunCap·r ids in at least r + 2
	// bytes. A count above idRunCap ids per remaining payload byte is a
	// lie, refused before anything is reserved for it.
	idsPerPayloadByte = idRunCap
	// maxIDBytes bounds the encoding's size: a list of n ids is at most
	// binary.MaxVarintLen32 + maxIDBytes·n bytes. A single run is its count
	// and a head of at most five bytes. A Rice list is at most a five-byte
	// head, the parameter byte and 14 bits for the first run's length; then
	// a run of one id at most a 41-bit gap and a length of 1 + maxLenParam
	// bits, and a longer run at most 55 bits: 47 bits an id at worst. Six
	// bytes an id leave a bit an id, and a count below 128 four of its
	// five bytes, for the head, the parameter byte and the first length; a
	// longer list has the bits.
	maxIDBytes = binary.MaxVarintLen32 + 1
	// maxWireIDs bounds one list's length, on encode and decode alike.
	maxWireIDs = (MaxFramePayload - 8) / 4
	// minRecordBytes is the smallest encoded record: a one-byte head, its A
	// shared with the last B, and a B equal to its A, one count byte.
	minRecordBytes = 1 + 1
	// maxRecordBytes is the largest: a five-byte head (a 33-bit zigzag
	// delta and the shared bit) and two full coded points.
	maxRecordBytes = binary.MaxVarintLen32 + 2*maxXORBytes
)

// appendIDs appends the Rice-coded id list.
func appendIDs(b []byte, ids []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	if len(ids) == 0 {
		return b
	}
	// The first pass finds the breaks between runs, 64 ids at a time, and
	// keeps the first masks for the second. A run split at idRunCap adds a
	// run and a gap of 0 that the means overlook.
	var masks [32]uint64
	runs, neg := uint64(1), int64(0)
	for c := 0; c < len(ids); c += 64 {
		m, ng := idBreaks(ids, c)
		if c/64 < len(masks) {
			masks[c/64] = m
		}
		runs, neg = runs+uint64(bits.OnesCount64(m)), neg|ng
	}
	first, last := ids[0], ids[len(ids)-1]
	if runs == 1 && len(ids) <= idRunCap {
		return binary.AppendUvarint(b, uint64(first)<<1)
	}
	// The parameters come from the means of the gaps and of the lengths
	// less one. An ascending list's runs cover its span but for the gaps,
	// so its gaps sum to the span less the count; any other list's gaps are
	// zigzagged, and summed id by id, a gap being the step across a break
	// less one.
	ascending := neg >= 0
	head, sum := uint64(first)<<2|1, uint64(last)+1-uint64(first)-uint64(len(ids))
	if !ascending {
		head, sum = head|2, 0
		for i, id := range ids[1:] {
			d := int64(id) - int64(ids[i]) - 1
			sum += uint64(d<<1) ^ uint64(d>>63)
		}
	}
	kg := riceParam(sum, max(runs-1, 1), maxGapParam)
	kl := riceParam(uint64(len(ids))-runs, runs, maxLenParam)
	b = binary.AppendUvarint(b, head)
	b = append(b, byte(kl<<5|kg))
	// The second pass writes the bitstream: the first run's length, then
	// each further run's gap and length, at most 55 bits a run. acc holds
	// the nb bits not yet stored; each run stores acc's eight bytes at o
	// and keeps what did not fill one, so out needs eight bytes of room
	// past the stream's end. The breaks come as the bits of m, the ids
	// between two breaks being split into runs of idRunCap.
	b = slices.Grow(b, 7*(int(runs)+len(ids)/idRunCap)+8)
	out, o := b[:cap(b)], len(b)
	var acc uint64
	var nb uint
	c, m, end := 0, masks[0], int64(0)
	for start := 0; start < len(ids); {
		for m == 0 && c+64 < len(ids) {
			if c += 64; c/64 < len(masks) {
				m = masks[c/64]
			} else {
				m, _ = idBreaks(ids, c)
			}
		}
		stop := len(ids)
		if m != 0 {
			stop, m = c+bits.TrailingZeros64(m), m&(m-1)
		}
		for n := 0; start < stop; start += n {
			n = min(stop-start, idRunCap)
			binary.LittleEndian.PutUint64(out[o:], acc)
			o, acc, nb = o+int(nb>>3), acc>>(nb&^7), nb&7
			var gc uint64
			var gw uint
			if at := int64(ids[start]); start > 0 {
				gap := at - end
				v := uint64(gap)
				if !ascending {
					v = uint64(gap<<1) ^ uint64(gap>>63)
				}
				gc, gw = rice(v, kg, gapRawBits)
			}
			lc, lw := rice(uint64(n-1), kl, lenRawBits)
			acc |= (gc | lc<<gw) << nb
			nb += gw + lw
			end = int64(ids[start]) + int64(n)
		}
	}
	binary.LittleEndian.PutUint64(out[o:], acc)
	return b[:o+int((nb+7)>>3)]
}

// idBreaks returns where ids[c:c+64] breaks its runs, as the bits of m: bit
// j is set when ids[c+j] does not exceed ids[c+j-1] by one (the list's
// first id is no break). neg is negative when one of those steps is not up.
// The compiler makes the break test a conditional move, not a branch a run's
// unpredictable end would mispredict; kept out of line, the loop keeps its
// state in registers, where inlined into appendIDs it spilled.
//
//go:noinline
func idBreaks(ids []uint32, c int) (m uint64, neg int64) {
	lo := max(c, 1)
	prev, bit := int64(ids[lo-1]), uint64(1)<<(lo-c)
	for _, id := range ids[lo:min(c+64, len(ids))] {
		d := int64(id) - prev - 1
		if d != 0 {
			m |= bit
		}
		neg |= d
		prev, bit = int64(id), bit<<1
	}
	return m, neg
}

// riceParam is the Rice parameter for count values summing to sum: the
// largest k with 2^k at most their mean (0 for a mean below 2), at most
// limit. It is the bit length of count·2^k against sum's, without a
// division.
func riceParam(sum, count uint64, limit uint) uint {
	k := bits.Len64(sum) - bits.Len64(count)
	if k > 0 && count<<k > sum {
		k--
	}
	return min(uint(max(k, 0)), limit)
}

// rice is v's Rice code under parameter k, in the order the decoder reads
// it from the low bit up — q = v>>k zero bits, a one, v's low k bits — or
// its escape when q reaches riceEscape: riceEscape zero bits and v's raw
// low bits. It returns the code and its width in bits.
func rice(v uint64, k, raw uint) (uint64, uint) {
	if q := v >> k; q < riceEscape {
		return (v&(1<<k-1)<<1 | 1) << q, uint(q) + 1 + k
	}
	return v << riceEscape, riceEscape + raw
}

// unrice reads one Rice code under parameter k from w's low bits, which
// must hold at least riceEscape + raw of them: the value and its width.
func unrice(w uint64, k, raw uint) (uint64, uint) {
	if q := uint(bits.TrailingZeros64(w)); q < riceEscape {
		return uint64(q)<<k | w>>(q+1)&(1<<k-1), q + 1 + k
	}
	return w >> riceEscape & (1<<raw - 1), riceEscape + raw
}

// appendIDs appends one Rice-coded id list to dst, reusing its capacity. The
// count is bounds-checked against the remaining payload before dst is grown —
// once, to the full count, so a reply's list costs one allocation whatever its
// length and a hostile count cannot force a large one.
func (d *decoder) appendIDs(dst []uint32) []uint32 {
	n := d.count("id", idsPerPayloadByte, 1, maxWireIDs)
	if n == 0 {
		return dst
	}
	head := d.uvarint()
	single, params := head&1 == 0, uint(0)
	switch {
	case d.err != nil:
	case single && n > idRunCap:
		d.err = fmt.Errorf("id run of %d exceeds %d", n, idRunCap)
	case single && head>>1 > math.MaxUint32-uint64(n-1):
		d.err = fmt.Errorf("id run at %d leaves uint32", head>>1)
	case !single:
		if params = uint(d.u8()); d.err == nil && params>>5 > maxLenParam {
			d.err = fmt.Errorf("id list length parameter %d exceeds %d", params>>5, maxLenParam)
		}
	}
	if d.err != nil {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	if single {
		for i := range out {
			out[i] = uint32(head>>1) + uint32(i)
		}
		return dst
	}
	signed, kg, kl := head&2 != 0, params&31, params>>5
	// Each run is read from one 64-bit load at its first byte, shifted to
	// its first bit: at least 57 bits, all a run can take. A load past the
	// payload's last eight bytes reads them from a zero-padded copy.
	b, pos, limit := d.b, uint(d.off)*8, uint(len(d.b))*8
	var tail [16]byte
	t0 := max(len(b)-8, 0)
	copy(tail[:], b[t0:])
	at, end := int64(head>>2), int64(0)
	for k := 0; k < n; {
		var w uint64
		if i := int(pos >> 3); i+8 <= len(b) {
			w = binary.LittleEndian.Uint64(b[i:]) >> (pos & 7)
		} else {
			w = binary.LittleEndian.Uint64(tail[i-t0:]) >> (pos & 7)
		}
		used := uint(0)
		if k > 0 {
			v, m := unrice(w, kg, gapRawBits)
			if signed {
				at = end + (int64(v>>1) ^ -int64(v&1))
			} else {
				at = end + int64(v)
			}
			w >>= m
			used = m
		}
		l, m := unrice(w, kl, lenRawBits)
		pos += used + m
		run := int(l) + 1
		switch {
		case pos > limit:
			d.err = fmt.Errorf("id list truncated at byte %d", len(b))
		case run > idRunCap:
			d.err = fmt.Errorf("id run of %d exceeds %d", run, idRunCap)
		case at < 0 || at > math.MaxUint32-int64(run-1):
			d.err = fmt.Errorf("id run at %d leaves uint32", at)
		case k+run > n:
			d.err = fmt.Errorf("id runs overrun the count %d", n)
		}
		if d.err != nil {
			return dst[:base]
		}
		// Store sixteen ids, whatever the run's length, while the list has
		// room for them, then eight at a time; the next run overwrites what
		// this one did not own. Most runs are shorter than sixteen, so the
		// loops below rarely run and their exits are predicted.
		v, j := uint32(at), 0
		if k+16 <= n {
			o := out[k : k+16 : k+16]
			o[0], o[1], o[2], o[3] = v, v+1, v+2, v+3
			o[4], o[5], o[6], o[7] = v+4, v+5, v+6, v+7
			o[8], o[9], o[10], o[11] = v+8, v+9, v+10, v+11
			o[12], o[13], o[14], o[15] = v+12, v+13, v+14, v+15
			j = 16
		}
		for ; j < run && k+j+8 <= n; j += 8 {
			o, w := out[k+j:k+j+8:k+j+8], v+uint32(j)
			o[0], o[1], o[2], o[3] = w, w+1, w+2, w+3
			o[4], o[5], o[6], o[7] = w+4, w+5, w+6, w+7
		}
		for ; j < run; j++ {
			out[k+j] = v + uint32(j)
		}
		k += run
		end = at + int64(run)
	}
	d.off = int((pos + 7) / 8)
	return dst
}

// appendRecords appends the endpoint-chained record list.
func appendRecords(b []byte, recs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	b = slices.Grow(b, len(recs)*maxRecordBytes)
	prevID := int64(0)
	var bx, by uint64 // the previous record's B
	for i := range recs {
		r := &recs[i]
		o := len(b)
		w := b[o : o+maxRecordBytes]
		ax, ay := math.Float64bits(r.Seg.A.X), math.Float64bits(r.Seg.A.Y)
		delta := int64(r.ID) - prevID
		head := (uint64(delta<<1) ^ uint64(delta>>63)) << 1
		shared := i > 0 && ax == bx && ay == by
		if shared {
			head |= 1
		}
		k := 1
		if w[0] = byte(head); head >= 0x80 {
			k = binary.PutUvarint(w, head)
		}
		if !shared {
			k += putXOR(w[k:], ax^bx, ay^by)
		}
		bx, by = math.Float64bits(r.Seg.B.X), math.Float64bits(r.Seg.B.Y)
		k += putXOR(w[k:], bx^ax, by^ay)
		b = b[:o+k]
		prevID = int64(r.ID)
	}
	return b
}

// appendRecords appends one record list to dst, reusing its capacity, with
// the same bounds discipline as appendIDs. A record with a non-finite
// coordinate is refused here, where its bits are at hand.
func (d *decoder) appendRecords(dst []Record) []Record {
	n := d.count("record", 1, minRecordBytes, maxWireRecords)
	if n == 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	b, off := d.b, d.off
	prevID := int64(0)
	var bx, by uint64 // the previous record's B
	// A record is read from a window of maxRecordBytes; the payload's last
	// records, from a zero-padded copy of what is left.
	var tail [maxRecordBytes]byte
	for i := range out {
		w := b[off:]
		if len(w) < maxRecordBytes {
			clear(tail[copy(tail[:], w):])
			w = tail[:]
		}
		w = w[:maxRecordBytes]
		head, k := uint64(w[0]), 1
		if head >= 0x80 {
			// A head holds at most 34 bits: five varint bytes.
			if head, k = binary.Uvarint(w[:binary.MaxVarintLen32]); k <= 0 {
				d.err = fmt.Errorf("bad record head at byte %d", off)
				return dst[:base]
			}
		}
		zz := head >> 1
		id := prevID + (int64(zz>>1) ^ -int64(zz&1))
		if id < 0 || id > math.MaxUint32 {
			d.err = fmt.Errorf("record %d id delta leaves uint32", i)
			return dst[:base]
		}
		ax, ay, m := bx, by, 0
		if head&1 == 0 {
			if ax, ay, m = xorAt(w[k:], bx, by); m < 0 {
				d.err = fmt.Errorf("record %d has a coordinate byte count above 8", i)
				return dst[:base]
			}
			k += m
		} else if i == 0 {
			d.err = fmt.Errorf("first record flagged as sharing an endpoint")
			return dst[:base]
		}
		if bx, by, m = xorAt(w[k:], ax, ay); m < 0 {
			d.err = fmt.Errorf("record %d has a coordinate byte count above 8", i)
			return dst[:base]
		}
		k += m
		switch {
		case off+k > len(b):
			d.err = fmt.Errorf("record %d truncated at byte %d", i, len(b))
		case ax&expMask == expMask || ay&expMask == expMask || bx&expMask == expMask || by&expMask == expMask:
			d.err = fmt.Errorf("record %d has a non-finite coordinate", i)
		}
		if d.err != nil {
			return dst[:base]
		}
		out[i] = Record{ID: uint32(id), Seg: geom.Segment{
			A: geom.Point{X: math.Float64frombits(ax), Y: math.Float64frombits(ay)},
			B: geom.Point{X: math.Float64frombits(bx), Y: math.Float64frombits(by)},
		}}
		off += k
		prevID = id
	}
	d.off = off
	return dst
}

// maxWireRecords bounds one record list's length at what a full frame of
// 17-byte records holds. A record codes in as few as minRecordBytes, so a
// hostile count is held to this cap, not to the payload, before anything is
// reserved for it.
const maxWireRecords = (MaxFramePayload - 24) / 17

func validateRecords(what string, recs []Record) error {
	if n := len(recs); n > maxWireRecords {
		return fmt.Errorf("proto: %s of %d records exceeds frame limit", what, n)
	}
	for i := range recs {
		// A coordinate is NaN or infinite exactly when its exponent bits
		// are all ones, as the decoder tests them.
		s := &recs[i].Seg
		if math.Float64bits(s.A.X)&expMask == expMask || math.Float64bits(s.A.Y)&expMask == expMask ||
			math.Float64bits(s.B.X)&expMask == expMask || math.Float64bits(s.B.Y)&expMask == expMask {
			return fmt.Errorf("proto: %s record %d: non-finite coordinate in %v", what, i, *s)
		}
	}
	return nil
}

// count reads a list's uvarint count and refuses one the rest of the payload
// cannot hold — more than perByte items per minBytes remaining bytes — or
// one above limit, before the caller reserves anything for it.
func (d *decoder) count(what string, perByte, minBytes, limit int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	rest := uint64(len(d.b) - d.off)
	if v > uint64(limit) || v > rest/uint64(minBytes)*uint64(perByte) {
		d.err = fmt.Errorf("%s count %d does not fit %d payload bytes", what, v, rest)
		return 0
	}
	return int(v)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}
