package proto

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// appendIDRuns is the reference id coder the Rice coding replaced: a
// uvarint count, then per run the zigzag varint gap from the previous run's
// end and one byte holding its length minus one. The size tests measure
// appendIDs against it, and BenchmarkIDList times it beside appendIDs.
func appendIDRuns(b []byte, ids []uint32) []byte {
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

// appendIDRuns decodes appendIDRuns' coding into dst, as the decoder did
// before the Rice coding.
func (d *decoder) appendIDRuns(dst []uint32) []uint32 {
	n := d.count("id", idRunCap/2, 1, maxWireIDs)
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
