// Package hilbert implements the Hilbert space-filling curve used to
// linearize two-dimensional space. Kamel and Faloutsos ("On Packing
// R-trees", CIKM 1993) sort the data items by the Hilbert value of their MBR
// centroid before bulk-loading the packed R-tree; this is the structure the
// paper evaluates, so the curve is a core substrate here.
//
// Encode is a table-driven state machine over a 2^order × 2^order grid: each
// step consumes 4 bits of x and 4 of y and emits 8 bits of the key, so an
// order-16 key is 4 lookups and no branches. The table is built at init from
// the curve's per-bit rotate-and-flip step, which Decode still walks bit by
// bit; the classic iterative walk is kept as the test oracle
// (internal/hilbert/hilbertref), and the tests hold Encode bit-identical to
// it at every order and Encode and Decode exact inverses.
package hilbert

import "fmt"

// Order is the default curve order used by the index bulk loader: a
// 2^16 × 2^16 grid is fine enough that distinct street segments in the
// datasets almost never collide in one cell.
const Order = 16

// MaxOrder is the largest supported curve order: a key holds 2·order bits.
const MaxOrder = 32

// step4 is the curve four levels at a time. The orientation state is a
// transform applied to the remaining low bits of (x, y): bit 0 swaps x and
// y, bit 1 complements both. step4[state<<8|x4<<4|y4] holds the 8 key bits
// those four levels emit in its low byte and the state after them, shifted
// left by 8, above it — so an entry masked by stateMask is the next row.
var step4 [4 << 8]uint16

const stateMask = 3 << 8

func init() {
	for st := uint32(0); st < 4; st++ {
		for xy := uint32(0); xy < 256; xy++ {
			// Put the two nibbles above a probe cell (1, 0), orient the
			// 8-bit cell by st, and walk the nibbles' four levels. What
			// the walk leaves of the probe names the next state.
			x, y := orient(st, xy>>4<<4|1, xy&15<<4)
			var d uint32
			for s := uint32(1) << 7; s >= 1<<4; s >>= 1 {
				rx, ry := x&s/s, y&s/s
				d = d<<2 | ((3 * rx) ^ ry)
				x, y = rotate(s, x, y, rx, ry)
			}
			var next uint32
			for next = 0; next < 4; next++ {
				if px, py := orient(next, 1, 0); px&15 == x&15 && py&15 == y&15 {
					break
				}
			}
			step4[st<<8|xy] = uint16(next<<8 | d)
		}
	}
}

// orient applies orientation state st to an 8-bit cell.
func orient(st, x, y uint32) (uint32, uint32) {
	if st&2 != 0 {
		x, y = 255-x, 255-y
	}
	if st&1 != 0 {
		x, y = y, x
	}
	return x, y
}

// Encode returns the distance along the Hilbert curve of order `order` at
// which the cell (x, y) is visited. order must be in [1, MaxOrder] (Encode
// panics otherwise); bits of x and y at or above order are ignored, so
// callers pass cells in [0, 2^order).
func Encode(order uint, x, y uint32) uint64 {
	if order-1 >= MaxOrder {
		badOrder(order)
	}
	// Pad the grid to a multiple of 4 levels with zero levels on top and
	// left-align it, dropping the bits above order. The curve's first
	// step in cell (0, 0) is a swap, so each pad level toggles the swap
	// bit of the start state.
	pad := -order & 3
	x = x << (MaxOrder - order) >> pad
	y = y << (MaxOrder - order) >> pad
	e := uint(pad&1) << 8
	var d uint64
	for n := (order + pad) / 4; n > 0; n-- {
		e = uint(step4[e&stateMask|uint(x>>28<<4|y>>28)])
		d = d<<8 | uint64(uint8(e))
		x <<= 4
		y <<= 4
	}
	return d
}

func badOrder(order uint) {
	panic(fmt.Sprintf("hilbert: order %d outside [1, %d]", order, MaxOrder))
}

// Decode returns the cell (x, y) visited at distance d along the Hilbert
// curve of order `order` in [1, MaxOrder]. It is the inverse of Encode and
// stays bit-serial: only tests call it.
func Decode(order uint, d uint64) (x, y uint32) {
	t := d
	for i := uint(0); i < order; i++ {
		s := uint32(1) << i
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rotate(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// rotate rotates/flips the quadrant so the curve orientation is correct for
// the next level of recursion.
func rotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// Quantizer maps continuous coordinates inside a bounding box onto the
// Hilbert grid so that arbitrary map-unit geometry can be linearized.
type Quantizer struct {
	order          uint
	minX, minY     float64
	maxX, maxY     float64
	scaleX, scaleY float64
	maxCell        uint32
}

// NewQuantizer returns a Quantizer for the box [minX,maxX] × [minY,maxY] at
// the given curve order, which must be in [1, MaxOrder] (NewQuantizer panics
// otherwise). Degenerate extents (zero width or height) are handled by
// collapsing that axis to cell 0.
func NewQuantizer(order uint, minX, minY, maxX, maxY float64) *Quantizer {
	if order-1 >= MaxOrder {
		badOrder(order)
	}
	q := &Quantizer{
		order:   order,
		minX:    minX,
		minY:    minY,
		maxX:    maxX,
		maxY:    maxY,
		maxCell: uint32(uint64(1)<<order - 1),
	}
	if dx := maxX - minX; dx > 0 {
		q.scaleX = float64(q.maxCell) / dx
	}
	if dy := maxY - minY; dy > 0 {
		q.scaleY = float64(q.maxCell) / dy
	}
	return q
}

// Value returns the Hilbert value of the continuous point (x, y). Points
// outside the quantizer's box are clamped onto its boundary.
func (q *Quantizer) Value(x, y float64) uint64 {
	cx, cy := q.Cell(x, y)
	return Encode(q.order, cx, cy)
}

// Cell returns the grid cell Value encodes for the continuous point (x, y).
func (q *Quantizer) Cell(x, y float64) (cx, cy uint32) {
	return q.cell(x, q.minX, q.maxX, q.scaleX), q.cell(y, q.minY, q.maxY, q.scaleY)
}

func (q *Quantizer) cell(v, min, max, scale float64) uint32 {
	// Clamp the coordinate first so every out-of-box input lands on exactly
	// the same cell as the corresponding boundary point.
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	c := (v - min) * scale
	if c <= 0 {
		return 0
	}
	if c >= float64(q.maxCell) {
		return q.maxCell
	}
	return uint32(c)
}
