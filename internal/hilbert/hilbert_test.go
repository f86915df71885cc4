package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobispatial/internal/hilbert/hilbertref"
)

// encodeRef is the bit-serial rotate-and-flip walk the table kernel must
// reproduce bit for bit.
var encodeRef = hilbertref.Encode

// TestEncodeMatchesReferenceExhaustive compares Encode with the reference
// over every cell of every grid up to order 8, which covers every padding
// of a partial top step and every table entry from every start state.
func TestEncodeMatchesReferenceExhaustive(t *testing.T) {
	for order := uint(1); order <= 8; order++ {
		side := uint32(1) << order
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				if got, want := Encode(order, x, y), encodeRef(order, x, y); got != want {
					t.Fatalf("Encode(%d, %d, %d) = %d, reference %d", order, x, y, got, want)
				}
			}
		}
	}
}

// TestEncodeMatchesReferenceRandom compares Encode with the reference on a
// million random cells at the index's order and at the two largest.
func TestEncodeMatchesReferenceRandom(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(27))
	for _, order := range []uint{Order, 31, MaxOrder} {
		mask := uint32(uint64(1)<<order - 1)
		for i := 0; i < n; i++ {
			x, y := rng.Uint32()&mask, rng.Uint32()&mask
			if got, want := Encode(order, x, y), encodeRef(order, x, y); got != want {
				t.Fatalf("Encode(%d, %d, %d) = %d, reference %d", order, x, y, got, want)
			}
		}
	}
}

// FuzzEncodeMatchesReference holds Encode to the reference at every order
// for arbitrary coordinates, including bits above the order.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(uint8(16), uint32(12345), uint32(54321))
	f.Add(uint8(31), uint32(1<<31-1), uint32(0))
	f.Add(uint8(32), ^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, o uint8, x, y uint32) {
		order := 1 + uint(o)%MaxOrder
		if got, want := Encode(order, x, y), encodeRef(order, x, y); got != want {
			t.Fatalf("Encode(%d, %d, %d) = %d, reference %d", order, x, y, got, want)
		}
	})
}

// TestOrderOutOfRangePanics: order 0 and orders above 32 used to wrap the
// curve's shift to zero and key every cell 0, so a misconfigured bulk load
// packed in input order without a word. They are now refused.
func TestOrderOutOfRangePanics(t *testing.T) {
	for _, order := range []uint{0, MaxOrder + 1, 64} {
		for name, call := range map[string]func(){
			"Encode":       func() { Encode(order, 1, 1) },
			"NewQuantizer": func() { NewQuantizer(order, 0, 0, 1, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at order %d did not panic", name, order)
					}
				}()
				call()
			}()
		}
	}
}

func TestDecodeInvertsEncodeAtMaxOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 10000; i++ {
		x, y := rng.Uint32(), rng.Uint32()
		if gx, gy := Decode(MaxOrder, Encode(MaxOrder, x, y)); gx != x || gy != y {
			t.Fatalf("Decode(Encode(%d, %d)) = (%d, %d) at order %d", x, y, gx, gy, MaxOrder)
		}
	}
}

func TestEncodeDecodeRoundTripExhaustiveSmall(t *testing.T) {
	const order = 5
	side := uint32(1) << order
	seen := make(map[uint64]bool, side*side)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			d := Encode(order, x, y)
			if d >= uint64(side)*uint64(side) {
				t.Fatalf("Encode(%d,%d,%d) = %d out of range", order, x, y, d)
			}
			if seen[d] {
				t.Fatalf("duplicate Hilbert value %d at (%d,%d)", d, x, y)
			}
			seen[d] = true
			gx, gy := Decode(order, d)
			if gx != x || gy != y {
				t.Fatalf("Decode(Encode(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	if len(seen) != int(side*side) {
		t.Fatalf("curve visited %d cells, want %d", len(seen), side*side)
	}
}

func TestCurveIsContinuous(t *testing.T) {
	// Consecutive curve positions must be 4-neighbors in the grid: that
	// adjacency is the locality property the packed R-tree relies on.
	const order = 6
	px, py := Decode(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := Decode(order, d)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jumps from (%d,%d) to (%d,%d) at d=%d", px, py, x, y, d)
		}
		px, py = x, y
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(x, y uint32) bool {
		x &= 1<<Order - 1
		y &= 1<<Order - 1
		gx, gy := Decode(Order, Encode(Order, x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerClamps(t *testing.T) {
	q := NewQuantizer(8, 0, 0, 100, 100)
	lo := q.Value(-5, -5)
	if lo != q.Value(0, 0) {
		t.Errorf("below-range point not clamped to origin cell: %d vs %d", lo, q.Value(0, 0))
	}
	hi := q.Value(200, 200)
	if hi != q.Value(100, 100) {
		t.Errorf("above-range point not clamped to max cell: %d vs %d", hi, q.Value(100, 100))
	}
}

func TestQuantizerDegenerateExtent(t *testing.T) {
	q := NewQuantizer(8, 5, 5, 5, 5) // zero-area box
	if got := q.Value(5, 5); got != Encode(8, 0, 0) {
		t.Errorf("degenerate quantizer: got %d, want cell (0,0) value %d", got, Encode(8, 0, 0))
	}
}

func TestQuantizerPreservesLocality(t *testing.T) {
	// Nearby points should usually have nearby Hilbert values. We check a
	// statistical version: the mean |Δd| for pairs at distance 1/256 of the
	// extent must be far below the mean for random pairs.
	q := NewQuantizer(Order, 0, 0, 1, 1)
	rng := rand.New(rand.NewSource(42))
	var near, far float64
	const n = 2000
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*0.99, rng.Float64()*0.99
		d0 := q.Value(x, y)
		d1 := q.Value(x+1.0/256, y)
		near += absDiff(d0, d1)
		d2 := q.Value(rng.Float64(), rng.Float64())
		far += absDiff(d0, d2)
	}
	if near >= far/10 {
		t.Errorf("locality too weak: mean near Δ=%g, mean random Δ=%g", near/n, far/n)
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

var sink uint64

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += Encode(Order, uint32(i)&0xFFFF, uint32(i>>8)&0xFFFF)
	}
}

// BenchmarkEncodeRef is the same loop over the bit-serial reference: the
// kernel's speedup is the ratio of the two rows.
func BenchmarkEncodeRef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += encodeRef(Order, uint32(i)&0xFFFF, uint32(i>>8)&0xFFFF)
	}
}
