// coord.go: the one coding a point takes on the wire when a nearby point
// precedes it — a segment's B after its A, a record's A after the previous
// record's B, a rectangle's Max after its Min. Two nearby float64s share their
// sign, their exponent and the top of their mantissa, so the XOR of their bit
// patterns is zero in its high bytes; only its low, significant bytes travel
// (Gorilla's float XOR, Pelkonen et al., VLDB 2015, cut at byte boundaries):
//
//	count byte: low nibble nx, high nibble ny, each 0–8 | nx bytes | ny bytes
//
// where an axis's bytes are the low bytes of bits(p) XOR bits(ref),
// least significant first, and a count is the fewest bytes that hold the
// XOR. The coding is lossless for every bit pattern: -0 and +0, subnormals,
// infinities and NaN payloads all come back bit for bit. A point with no
// reference on the wire — a point or k-NN query's — travels raw (appendPoint).
package proto

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mobispatial/internal/geom"
)

// maxXORBytes is the longest coded point: the count byte and two full
// words. The encoder stores whole 8-byte words, so it writes into up to
// maxXORBytes bytes past the point's start whatever the point's length.
const maxXORBytes = 1 + 16

// expMask selects a float64's exponent: all ones is an infinity or a NaN.
const expMask = 0x7FF0000000000000

// lowBytes[n] keeps the low n bytes of a word.
var lowBytes = [9]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, math.MaxUint64}

// appendXOR appends p coded against ref.
func appendXOR(b []byte, p, ref geom.Point) []byte {
	b = slices.Grow(b, maxXORBytes)
	o := len(b)
	x := math.Float64bits(p.X) ^ math.Float64bits(ref.X)
	y := math.Float64bits(p.Y) ^ math.Float64bits(ref.Y)
	return b[:o+putXOR(b[o:o+maxXORBytes], x, y)]
}

// putXOR codes a point whose bit patterns XOR its reference's to x and y at
// the front of w, which must hold maxXORBytes bytes, and returns the coded
// length.
func putXOR(w []byte, x, y uint64) int {
	nx := (bits.Len64(x) + 7) >> 3
	ny := (bits.Len64(y) + 7) >> 3
	w[0] = byte(nx | ny<<4)
	binary.LittleEndian.PutUint64(w[1:], x)
	binary.LittleEndian.PutUint64(w[1+nx:], y)
	return 1 + nx + ny
}

// xorAt reads the coded point at the front of w against the bit patterns
// rx, ry, returning its own and its coded length, or a length of -1 for a
// count above eight. w must hold maxXORBytes bytes: it loads whole words and
// masks off what lies past an axis's bytes, so a payload's last bytes are
// read from a zero-padded copy.
func xorAt(w []byte, rx, ry uint64) (x, y uint64, n int) {
	w = w[:maxXORBytes]
	nx, ny := int(w[0]&15), int(w[0]>>4)
	if nx > 8 || ny > 8 {
		return 0, 0, -1
	}
	x = binary.LittleEndian.Uint64(w[1:]) & lowBytes[nx]
	y = binary.LittleEndian.Uint64(w[1+nx:]) & lowBytes[ny]
	return x ^ rx, y ^ ry, 1 + nx + ny
}

// xorPoint reads a point coded against ref.
func (d *decoder) xorPoint(ref geom.Point) geom.Point {
	if d.err != nil {
		return geom.Point{}
	}
	w := d.b[d.off:]
	var pad [maxXORBytes]byte
	if len(w) < maxXORBytes {
		copy(pad[:], w)
		w = pad[:]
	}
	x, y, n := xorAt(w, math.Float64bits(ref.X), math.Float64bits(ref.Y))
	if n < 0 {
		d.err = fmt.Errorf("coordinate byte counts %#x at byte %d", w[0], d.off)
		return geom.Point{}
	}
	if !d.need(n) {
		return geom.Point{}
	}
	d.off += n
	return geom.Point{X: math.Float64frombits(x), Y: math.Float64frombits(y)}
}
