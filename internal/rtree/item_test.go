package rtree

import (
	"math"
	"testing"
	"unsafe"

	"mobispatial/internal/geom"
)

// sameSeg reports whether a and b are the same segment bit for bit, so +0
// and -0 differ.
func sameSeg(a, b geom.Segment) bool {
	bits := func(s geom.Segment) [4]uint64 {
		return [4]uint64{math.Float64bits(s.A.X), math.Float64bits(s.A.Y), math.Float64bits(s.B.X), math.Float64bits(s.B.Y)}
	}
	return bits(a) == bits(b)
}

// checkSegItem fails t unless SegItem(s, id) keeps id, has s.MBR() as its
// MBR bit for bit, and rebuilds s bit for bit.
func checkSegItem(t *testing.T, s geom.Segment) {
	t.Helper()
	it := SegItem(s, 42)
	if got := it.Seg(); !sameSeg(got, s) {
		t.Errorf("SegItem(%v).Seg() = %v", s, got)
	}
	mbr := s.MBR()
	if it.ID != 42 || !sameSeg(geom.Segment{A: it.MBR.Min, B: it.MBR.Max}, geom.Segment{A: mbr.Min, B: mbr.Max}) {
		t.Errorf("SegItem(%v) = id %d MBR %v, want 42 and %v", s, it.ID, it.MBR, mbr)
	}
}

// TestSegItemRoundTrip: an item rebuilds its segment exactly, whichever
// corner of the MBR each end sits on — reversed ends, ±0 coordinates,
// axis-parallel and degenerate (point) segments, infinite coordinates — and
// its MBR is Segment.MBR's, -0 below +0 included.
func TestSegItemRoundTrip(t *testing.T) {
	pz, nz, inf := 0.0, math.Copysign(0, -1), math.Inf(1)
	seg := func(ax, ay, bx, by float64) geom.Segment {
		return geom.Segment{A: geom.Point{X: ax, Y: ay}, B: geom.Point{X: bx, Y: by}}
	}
	for _, s := range []geom.Segment{
		seg(1, 2, 3, 4),         // A at Min on both axes
		seg(3, 4, 1, 2),         // A at Max on both axes
		seg(1, 4, 3, 2),         // A at Min.X, Max.Y
		seg(3, 2, 1, 4),         // A at Max.X, Min.Y
		seg(5, 1, 5, 9),         // vertical
		seg(5, 9, 5, 1),         // vertical, reversed
		seg(1, 7, 9, 7),         // horizontal
		seg(9, 7, 1, 7),         // horizontal, reversed
		seg(6, 6, 6, 6),         // a point
		seg(pz, nz, nz, pz),     // ±0 on both axes
		seg(nz, pz, pz, nz),     // the other way round
		seg(nz, nz, nz, nz),     // a point at -0
		seg(pz, pz, pz, pz),     // a point at +0
		seg(-inf, 0, inf, 1),    // infinite ends
		seg(inf, -inf, -inf, 3), // infinite ends, reversed
		seg(-1e308, 5e-324, 1e308, -5e-324),
	} {
		checkSegItem(t, s)
	}
}

// TestItemIs40Bytes: the end bits live in Item's padding. An Item that grew
// would grow every tree's leaf level with it, past the heap budget.
func TestItemIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(Item{}) = %d, want 40", n)
	}
}

// FuzzSegItem: any segment without a NaN coordinate round-trips bit for
// bit, under the MBR Segment.MBR gives it.
func FuzzSegItem(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(3.0, 4.0, 1.0, 2.0)
	f.Add(0.0, math.Copysign(0, -1), math.Copysign(0, -1), 0.0)
	f.Add(5.0, 5.0, 5.0, 5.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64) {
		s := geom.Segment{A: geom.Point{X: ax, Y: ay}, B: geom.Point{X: bx, Y: by}}
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) {
				t.Skip("a NaN coordinate has no MBR corner to sit on")
			}
		}
		checkSegItem(t, s)
	})
}
