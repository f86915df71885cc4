// lists.go: the two list encodings every read answer travels in. A reply is
// mostly its list, and a list is mostly bytes the receiver could have
// predicted: a range answer's ids arrive ascending (the server's order
// contract) and nearly consecutive, because the generator numbers a street's
// segments in order; and a street's next segment starts where the last one
// ended, a few metres from where it began. Both codings are lossless for any
// input — any order, repeats included — and merely compact on the input they
// expect.
//
// Id list:      uvarint count, then runs. A run is the zigzag varint gap from
//
//	the previous run's end (one past its last id; 0 before the
//	first run) to the run's first id, and one byte holding the
//	run's length minus one. A run is at most idRunCap ids of
//	consecutive values.
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
	"slices"

	"mobispatial/internal/geom"
)

const (
	// idRunCap is the longest run one id-list run carries. A street is 3-18
	// segments, so a range answer's runs rarely reach it.
	idRunCap = 64
	// idsPerPayloadByte is the decoder's amplification bound: the cheapest
	// run is two bytes (a one-byte gap and the length byte) for idRunCap
	// ids, so a count above this many ids per remaining payload byte is a
	// lie, refused before anything is reserved for it.
	idsPerPayloadByte = idRunCap / 2
	// maxIDBytes bounds the encoding's size: an id alone in its run costs at
	// most a five-byte gap (|gap| ≤ 2^32, zigzagged to 33 bits) plus the
	// length byte. A list is at most binary.MaxVarintLen32 + maxIDBytes·n
	// bytes.
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

// appendIDs appends the run-coded id list.
func appendIDs(b []byte, ids []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	end := int64(0)
	for len(ids) > 0 {
		first := ids[0]
		// A run stops at the cap, at the list's end, and at the top of
		// uint32 (a run never wraps).
		run := ids[:min(len(ids), idRunCap)]
		if first > math.MaxUint32-idRunCap {
			run = run[:min(len(run), int(math.MaxUint32-first)+1)]
		}
		n := 1
		for n < len(run) && run[n] == first+uint32(n) {
			n++
		}
		// The gap's zigzag varint, its one- and two-byte forms written in
		// the same append as the length byte.
		gap := int64(first) - end
		switch zz := uint64(gap<<1) ^ uint64(gap>>63); {
		case zz < 1<<7:
			b = append(b, byte(zz), byte(n-1))
		case zz < 1<<14:
			b = append(b, byte(zz)|0x80, byte(zz>>7), byte(n-1))
		default:
			b = append(binary.AppendUvarint(b, zz), byte(n-1))
		}
		end = int64(first) + int64(n)
		ids = ids[n:]
	}
	return b
}

// appendIDs appends one run-coded id list to dst, reusing its capacity. The
// count is bounds-checked against the remaining payload before dst is grown —
// once, to the full count, so a reply's list costs one allocation whatever its
// length and a hostile count cannot force a large one.
func (d *decoder) appendIDs(dst []uint32) []uint32 {
	n := d.count("id", idsPerPayloadByte, 1, maxWireIDs)
	if n == 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	b, off := d.b, d.off
	end := int64(0)
	for k := 0; k < n; {
		// The gap is a zigzag varint of one or two bytes but for the rare
		// long jump; those two lengths decode without a branch.
		var zz uint64
		if off+2 < len(b) && b[off+1]&b[off]&0x80 == 0 {
			c := uint64(b[off] >> 7)
			zz = uint64(b[off]&0x7f) | uint64(b[off+1])<<7*c
			off += 1 + int(c)
		} else {
			v, m := binary.Uvarint(b[off:])
			if m <= 0 {
				d.err = fmt.Errorf("bad id gap at byte %d", off)
				return dst[:base]
			}
			zz, off = v, off+m
		}
		if off >= len(b) {
			d.err = fmt.Errorf("id run truncated at byte %d", off)
			return dst[:base]
		}
		run := int(b[off]) + 1
		off++
		first := end + (int64(zz>>1) ^ -int64(zz&1))
		switch {
		case run > idRunCap:
			d.err = fmt.Errorf("id run of %d exceeds %d", run, idRunCap)
		case first < 0 || first > math.MaxUint32-int64(run-1):
			d.err = fmt.Errorf("id run at %d leaves uint32", first)
		case k+run > n:
			d.err = fmt.Errorf("id runs overrun the count %d", n)
		}
		if d.err != nil {
			return dst[:base]
		}
		// Store eight ids at a time while the list has room for them; the
		// next run overwrites what this one did not own.
		v, j := uint32(first), 0
		for ; j < run && k+j+8 <= n; j += 8 {
			o, w := out[k+j:k+j+8:k+j+8], v+uint32(j)
			o[0], o[1], o[2], o[3] = w, w+1, w+2, w+3
			o[4], o[5], o[6], o[7] = w+4, w+5, w+6, w+7
		}
		for ; j < run; j++ {
			out[k+j] = v + uint32(j)
		}
		k += run
		end = first + int64(run)
	}
	d.off = off
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
	for i, r := range recs {
		if err := checkPoint(r.Seg.A); err != nil {
			return fmt.Errorf("proto: %s record %d: %w", what, i, err)
		}
		if err := checkPoint(r.Seg.B); err != nil {
			return fmt.Errorf("proto: %s record %d: %w", what, i, err)
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
