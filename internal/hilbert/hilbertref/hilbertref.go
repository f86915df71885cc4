// Package hilbertref is the reference Hilbert encoder: the classic
// bit-serial rotate-and-flip walk, one level per iteration. It is the oracle
// the table-driven hilbert.Encode is tested against, bit for bit, and the
// key recipe the rtree and shard tests pin the pack order and range cuts
// to. Only tests import it.
package hilbertref

// Encode returns the distance along the Hilbert curve of order `order` in
// [1, 32] at which the cell (x, y) is visited. Bits of x and y at or above
// order are ignored.
func Encode(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
