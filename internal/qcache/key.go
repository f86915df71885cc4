// key.go: cache key construction with cell snapping. Mobile queries cluster:
// vehicles near the same junction ask for almost — but not exactly — the same
// window. Quantizing query geometry to a configurable grid makes those
// near-identical queries collide on one cache entry holding the *snapped
// superset* result; the serving tier refines the superset down to the exact
// window on the way out, so caching never changes an answer.
//
// Which superset each Kind stores is chosen so refinement reproduces the
// uncached executor's semantics exactly (see internal/serve's cache path and
// DESIGN.md §16):
//
//   - KindRange: segments intersecting the snapped window. A segment
//     intersecting the exact window intersects any superset of it, so
//     refining with Segment.IntersectsRect(exact) recovers the exact answer.
//   - KindRangeFilter: item MBRs intersecting the snapped window, refined
//     with MBR.Intersects(exact).
//   - KindCell: item MBRs intersecting the one grid cell containing the
//     query point. The uncached point path filters by MBR-contains-point and
//     refines by segment distance; both predicates imply MBR-intersects-cell
//     for any point inside the cell, so this one stored set serves point
//     queries of every mode (and any eps — eps is applied at refinement
//     time, which is why it is not part of the key).
//   - KindNNCell: the k-NN candidates of the one grid cell C containing the
//     query point. With c the cell's centre, r its half-diagonal and D the
//     k-th distance from c, every point p in C has its k-th distance within
//     D + |p−c| ≤ D + r, so each of its k nearest has an MBR meeting
//     C.Expand(D + r) and lies within D + 2r of c. The entry stores those
//     items sorted by distance to c; the serving tier picks p's k smallest
//     (distance, id) from them and stops where distance to c minus |p−c|
//     exceeds the k-th best. One entry serves every point of the cell at
//     that k, in every mode.
//   - KindNN: the exact k nearest of one exact point (bit pattern plus k),
//     for a caller that memoizes single answers rather than refining.
package qcache

import (
	"math"

	"mobispatial/internal/geom"
)

// Kind tags what a cached entry's payload means and how the serving tier
// refines it.
type Kind uint8

// The cacheable result shapes.
const (
	// KindRange stores the exact answer over the snapped window: ids (and
	// geometry) of segments intersecting it.
	KindRange Kind = iota
	// KindRangeFilter stores the candidate ids whose MBR intersects the
	// snapped window.
	KindRangeFilter
	// KindCell stores the candidate ids whose MBR intersects one grid cell;
	// point queries of any mode refine from it.
	KindCell
	// KindNN stores the k nearest neighbors (ids, exact distances, geometry)
	// of an exact query point.
	KindNN
	// KindNNCell stores the k-NN candidates of one grid cell (ids,
	// distances to the cell's centre, geometry), nearest the centre first;
	// a k-NN at any point of the cell refines from it.
	KindNNCell
)

// Key identifies one cacheable query shape. It is a comparable value: map
// key on the hot path, no strings, no slices.
type Key struct {
	kind Kind
	k    uint16
	// a..d carry the kind-specific geometry: snapped cell indices for the
	// range kinds, cell coordinates for KindCell and KindNNCell, raw float
	// bit patterns for KindNN.
	a, b, c, d uint64
}

// Kind returns the entry shape this key addresses.
func (k Key) Kind() Kind { return k.kind }

// maxCellIndex bounds snapped cell indices. Beyond ~2^40 cells from the
// origin the float64 grid arithmetic loses the integers themselves, so such
// windows (and any NaN/Inf geometry, which floors to NaN or ±Inf) are simply
// uncacheable rather than risking a key collision.
const maxCellIndex = 1 << 40

// cellIndex quantizes one coordinate to its grid cell.
func cellIndex(v, cell float64) (int64, bool) {
	c := math.Floor(v / cell)
	if math.IsNaN(c) || c < -maxCellIndex || c > maxCellIndex {
		return 0, false
	}
	return int64(c), true
}

// RangeKey snaps a range-query window to the grid. It returns the key, the
// snapped superset window to execute and store, and whether the window is
// cacheable at all (empty, NaN, infinite, or grid-overflowing windows are
// not). filter selects the KindRangeFilter key space; exact range queries of
// either response mode share KindRange.
func RangeKey(w geom.Rect, cell float64, filter bool) (Key, geom.Rect, bool) {
	if !(cell > 0) || w.IsEmpty() {
		return Key{}, geom.Rect{}, false
	}
	x0, ok0 := cellIndex(w.Min.X, cell)
	y0, ok1 := cellIndex(w.Min.Y, cell)
	x1, ok2 := cellIndex(w.Max.X, cell)
	y1, ok3 := cellIndex(w.Max.Y, cell)
	if !ok0 || !ok1 || !ok2 || !ok3 {
		return Key{}, geom.Rect{}, false
	}
	snap := geom.Rect{
		Min: geom.Point{X: float64(x0) * cell, Y: float64(y0) * cell},
		Max: geom.Point{X: float64(x1+1) * cell, Y: float64(y1+1) * cell},
	}
	if !snap.ContainsRect(w) {
		// The refinement step is only sound over a true superset; if float
		// rounding at extreme magnitudes ever broke containment, caching
		// this window would corrupt answers. Decline instead.
		return Key{}, geom.Rect{}, false
	}
	k := Key{kind: KindRange, a: uint64(x0), b: uint64(y0), c: uint64(x1), d: uint64(y1)}
	if filter {
		k.kind = KindRangeFilter
	}
	return k, snap, true
}

// PointKey snaps a point query to its containing grid cell. The returned
// rect is the cell: the superset to filter-execute and store. Every point
// query mode shares the KindCell key space — the stored candidate set does
// not depend on mode or eps.
func PointKey(pt geom.Point, cell float64) (Key, geom.Rect, bool) {
	x, y, cr, ok := gridCell(pt, cell)
	if !ok {
		return Key{}, geom.Rect{}, false
	}
	return Key{kind: KindCell, a: uint64(x), b: uint64(y)}, cr, true
}

// NNCellKey snaps a k-nearest-neighbor query to the grid cell containing
// its point, plus k (0 and 1 both mean single NN and share an entry). The
// returned rect is the cell the entry's candidates are gathered for. Every
// k-NN mode shares the key space: the candidates do not depend on mode.
func NNCellKey(pt geom.Point, k int, cell float64) (Key, geom.Rect, bool) {
	k = max(k, 1)
	if k > math.MaxUint16 {
		return Key{}, geom.Rect{}, false
	}
	x, y, cr, ok := gridCell(pt, cell)
	if !ok {
		return Key{}, geom.Rect{}, false
	}
	return Key{kind: KindNNCell, k: uint16(k), a: uint64(x), b: uint64(y)}, cr, true
}

// gridCell returns the indices and extent of the grid cell containing pt;
// false when pt has no cell (NaN, infinite or grid-overflowing coordinates,
// or a cell that rounding left not containing it).
func gridCell(pt geom.Point, cell float64) (x, y int64, cr geom.Rect, ok bool) {
	if !(cell > 0) {
		return 0, 0, geom.Rect{}, false
	}
	x, okx := cellIndex(pt.X, cell)
	y, oky := cellIndex(pt.Y, cell)
	if !okx || !oky {
		return 0, 0, geom.Rect{}, false
	}
	cr = geom.Rect{
		Min: geom.Point{X: float64(x) * cell, Y: float64(y) * cell},
		Max: geom.Point{X: float64(x+1) * cell, Y: float64(y+1) * cell},
	}
	return x, y, cr, cr.ContainsPoint(pt)
}

// NNKey keys a k-nearest-neighbor query at its exact point: point bits plus
// k (0 and 1 both mean single NN and share an entry). The serving tier keys
// by cell instead (NNCellKey).
func NNKey(pt geom.Point, k int) (Key, bool) {
	if k <= 0 {
		k = 1
	}
	if k > math.MaxUint16 {
		return Key{}, false
	}
	if math.IsNaN(pt.X) || math.IsNaN(pt.Y) || math.IsInf(pt.X, 0) || math.IsInf(pt.Y, 0) {
		return Key{}, false
	}
	return Key{kind: KindNN, k: uint16(k), a: math.Float64bits(pt.X), b: math.Float64bits(pt.Y)}, true
}

// FNV-1a 64-bit constants, shared by Key.hash and HintOf.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// hash spreads keys across stripes.
func (k Key) hash() uint64 {
	h := uint64(fnvOffset64)
	h ^= uint64(k.kind)
	h *= fnvPrime64
	h = fnvU64(h, uint64(k.k))
	h = fnvU64(h, k.a)
	h = fnvU64(h, k.b)
	h = fnvU64(h, k.c)
	h = fnvU64(h, k.d)
	return h
}
