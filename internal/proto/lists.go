// lists.go: the two list encodings every read answer travels in. A reply is
// mostly its list, and a list is mostly bytes the receiver could have
// predicted: a range answer's ids arrive ascending (the server's order
// contract) and nearly consecutive, because the generator numbers a street's
// segments in order; and a street's next segment starts where the last one
// ended. Both codings are lossless for any input — any order, repeats
// included — and merely compact on the input they expect.
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
//	A unless that bit is set, then B (float64 bit patterns).
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
	// minRecordBytes is the smallest encoded record: a one-byte head and B.
	// The largest is a five-byte head (a 33-bit zigzag delta and the shared
	// bit) and both endpoints, 37 bytes, one more than the fixed form.
	minRecordBytes = 1 + 16
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

// samePoint is bit identity, so the shared-endpoint bit keeps -0 and +0
// apart.
func samePoint(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// appendRecords appends the endpoint-chained record list.
func appendRecords(b []byte, recs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	prev := int64(0)
	for i := range recs {
		r := &recs[i]
		delta := int64(r.ID) - prev
		head := (uint64(delta<<1) ^ uint64(delta>>63)) << 1
		shared := i > 0 && samePoint(r.Seg.A, recs[i-1].Seg.B)
		if shared {
			head |= 1
		}
		b = binary.AppendUvarint(b, head)
		if !shared {
			b = appendPoint(b, r.Seg.A)
		}
		b = appendPoint(b, r.Seg.B)
		prev = int64(r.ID)
	}
	return b
}

// appendRecords appends one record list to dst, reusing its capacity, with
// the same bounds discipline as appendIDs.
func (d *decoder) appendRecords(dst []Record) []Record {
	n := d.count("record", 1, minRecordBytes, maxWireRecords)
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		head := d.uvarint()
		zz := head >> 1
		id := prev + (int64(zz>>1) ^ -int64(zz&1))
		if d.err == nil && (id < 0 || id > math.MaxUint32) {
			d.err = fmt.Errorf("record %d id delta leaves uint32", i)
		}
		var r Record
		if head&1 == 0 {
			r.Seg.A = d.point()
		} else if i == 0 {
			d.err = fmt.Errorf("first record flagged as sharing an endpoint")
		} else {
			r.Seg.A = dst[len(dst)-1].Seg.B
		}
		r.Seg.B = d.point()
		if d.err != nil {
			return dst
		}
		r.ID = uint32(id)
		dst = append(dst, r)
		prev = id
	}
	return dst
}

// maxWireRecords bounds one record list's length.
const maxWireRecords = (MaxFramePayload - 24) / minRecordBytes

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
