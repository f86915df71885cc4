// Package geom provides the planar geometry primitives used by the spatial
// index and the query refinement steps: points, line segments, and axis-
// aligned rectangles (minimum bounding rectangles, MBRs).
//
// All coordinates are float64 in an abstract map unit (the synthetic datasets
// use one unit ≈ one meter). The predicates implemented here are exactly the
// ones the paper's queries need: point–segment incidence (point queries),
// segment–rectangle intersection (range queries), and point–segment distance
// (nearest-neighbor queries), plus the MINDIST metric used to order and prune
// the branch-and-bound nearest-neighbor search.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Sub returns the vector p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q treated as
// vectors.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Segment is a line segment between two endpoints. Segments are the data
// items of the road-atlas datasets (streets are polylines broken into
// individual segments, as in the TIGER data the paper uses).
type Segment struct {
	A, B Point
}

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("[%v-%v]", s.A, s.B) }

// MBR returns the minimum bounding rectangle of the segment.
func (s Segment) MBR() Rect {
	return Rect{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// ContainsPoint reports whether p lies on the segment within tolerance eps.
// This is the refinement predicate of the point query: the filtering step
// short-lists segments whose MBR contains p; refinement checks incidence.
func (s Segment) ContainsPoint(p Point, eps float64) bool {
	return s.DistToPoint(p) <= eps
}

// DistToPoint returns the distance from p to the nearest point of the
// segment: the perpendicular distance if the foot of the perpendicular falls
// on the segment, otherwise the distance to the closer endpoint (exactly the
// definition in §3 of the paper).
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist(s.A) // degenerate segment
	}
	t := p.Sub(s.A).Dot(d) / l2
	switch {
	case t <= 0:
		return p.Dist(s.A)
	case t >= 1:
		return p.Dist(s.B)
	}
	proj := Point{s.A.X + t*d.X, s.A.Y + t*d.Y}
	return p.Dist(proj)
}

// IntersectsRect reports whether any point of the segment lies inside or on
// the rectangle. This is the refinement predicate of the range query. It
// uses the Cohen–Sutherland style trivial accept/reject followed by exact
// edge tests.
func (s Segment) IntersectsRect(r Rect) bool {
	// Trivial accept: either endpoint inside.
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	// Trivial reject: segment MBR disjoint from r.
	if !r.Intersects(s.MBR()) {
		return false
	}
	// Exact: does the segment cross any of the four rectangle edges?
	corners := [4]Point{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
	for i := 0; i < 4; i++ {
		edge := Segment{corners[i], corners[(i+1)%4]}
		if segmentsIntersect(s, edge) {
			return true
		}
	}
	return false
}

// SegmentsIntersect reports whether segments s and t share at least one
// point, including touching endpoints and collinear overlap — the
// refinement predicate of the spatial (intersection) join.
func SegmentsIntersect(s, t Segment) bool { return segmentsIntersect(s, t) }

// segmentsIntersect reports whether segments s and t share at least one
// point, including touching endpoints and collinear overlap.
func segmentsIntersect(s, t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(t, s.A):
		return true
	case d2 == 0 && onSegment(t, s.B):
		return true
	case d3 == 0 && onSegment(s, t.A):
		return true
	case d4 == 0 && onSegment(s, t.B):
		return true
	}
	return false
}

// orient returns the sign of the signed area of triangle (a, b, c): positive
// for counter-clockwise, negative for clockwise, zero for collinear.
func orient(a, b, c Point) float64 {
	return b.Sub(a).Cross(c.Sub(a))
}

// onSegment reports whether collinear point p lies within the bounding box of
// segment s. Callers must have established collinearity.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// Rect is an axis-aligned rectangle, closed on all sides. The zero value is
// the degenerate rectangle at the origin; use EmptyRect for an identity
// element under Union.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: a rectangle that contains
// nothing and unions to the other operand.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("{%v %v}", r.Min, r.Max) }

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the extent of the rectangle along x.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of the rectangle along y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of the rectangle; empty rectangles have zero area.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r. An empty s is
// contained in every rectangle.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Min.X <= s.Min.X && s.Max.X <= r.Max.X &&
		r.Min.Y <= s.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point. This is the
// filtering predicate: the R-tree traversal descends into every child whose
// MBR intersects the query window.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s. It takes
// the builtin min and max, which compile to a few instructions where
// math.Min and math.Max are calls, and agree with them bit for bit wherever
// no corner is NaN, ±0 and ±Inf included, and are NaN wherever they are.
// The one difference needs a NaN corner beside the infinity on its side:
// math.Min(-Inf, NaN) is -Inf, min(-Inf, NaN) NaN. No map the generator
// makes and no message the wire decodes carries a NaN coordinate.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// Intersection returns the overlap of r and s; the result is empty when they
// are disjoint.
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Expand returns r grown by d on every side (shrunk for negative d).
func (r Rect) Expand(d float64) Rect {
	out := Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// MinDist returns the MINDIST metric of Roussopoulos et al.: the minimum
// possible distance from p to any point inside r. It is zero when p is inside
// r. The branch-and-bound nearest-neighbor search orders and prunes subtrees
// by this value.
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return math.Hypot(dx, dy)
}

// MinDistSq is MinDist squared without math.Hypot: dx² + dy² from the same
// per-axis gaps, within a few ulps of MinDist(p)² (it overflows to +Inf
// where MinDist is still finite). A caller pruning on it must allow for
// that rounding.
func (r Rect) MinDistSq(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
}

// MinMaxDist returns the MINMAXDIST metric of Roussopoulos et al.: the
// minimum over the rectangle's faces of the maximum distance from p to that
// face. Any rectangle that bounds at least one data object is guaranteed to
// contain an object within MinMaxDist of p, so it is a valid pruning bound.
func (r Rect) MinMaxDist(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	rmX := nearerEdge(p.X, r.Min.X, r.Max.X)
	rmY := nearerEdge(p.Y, r.Min.Y, r.Max.Y)
	rMX := fartherEdge(p.X, r.Min.X, r.Max.X)
	rMY := fartherEdge(p.Y, r.Min.Y, r.Max.Y)
	// Fix x to the nearer x-edge, y roams to the farther y-edge — and vice
	// versa; take the minimum of the two.
	dx := math.Hypot(p.X-rmX, p.Y-rMY)
	dy := math.Hypot(p.X-rMX, p.Y-rmY)
	return math.Min(dx, dy)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	}
	return 0
}

func nearerEdge(v, lo, hi float64) float64 {
	if v <= (lo+hi)/2 {
		return lo
	}
	return hi
}

func fartherEdge(v, lo, hi float64) float64 {
	if v >= (lo+hi)/2 {
		return lo
	}
	return hi
}
