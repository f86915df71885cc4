package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentMBR(t *testing.T) {
	s := Segment{Point{3, 7}, Point{1, 2}}
	want := Rect{Point{1, 2}, Point{3, 7}}
	if got := s.MBR(); got != want {
		t.Errorf("MBR() = %v, want %v", got, want)
	}
}

func TestDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},    // perpendicular foot inside
		{Point{-3, 4}, 5},   // nearest is endpoint A
		{Point{13, 4}, 5},   // nearest is endpoint B
		{Point{5, 0}, 0},    // on the segment
		{Point{0, 0}, 0},    // at endpoint
		{Point{10, -2}, 2},  // perpendicular at endpoint B
		{Point{-10, 0}, 10}, // collinear beyond A
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestDistToPointDegenerateSegment(t *testing.T) {
	s := Segment{Point{2, 2}, Point{2, 2}}
	if got := s.DistToPoint(Point{5, 6}); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate DistToPoint = %g, want 5", got)
	}
}

func TestContainsPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{4, 4}}
	if !s.ContainsPoint(Point{2, 2}, 1e-9) {
		t.Error("midpoint not contained")
	}
	if s.ContainsPoint(Point{2, 2.1}, 1e-9) {
		t.Error("off-segment point contained")
	}
	if !s.ContainsPoint(Point{2, 2.1}, 0.2) {
		t.Error("tolerance not honored")
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	cases := []struct {
		s    Segment
		want bool
	}{
		{Segment{Point{1, 1}, Point{2, 2}}, true},   // fully inside
		{Segment{Point{-5, 5}, Point{15, 5}}, true}, // crosses through
		{Segment{Point{-5, -5}, Point{-1, -1}}, false},
		{Segment{Point{-5, 5}, Point{5, 5}}, true},    // one endpoint inside
		{Segment{Point{-1, -1}, Point{1, -1}}, false}, // runs below
		{Segment{Point{0, -1}, Point{-1, 0}}, false},  // clips corner outside
		{Segment{Point{0, 10}, Point{10, 0}}, true},   // diagonal chord
		{Segment{Point{-1, 11}, Point{11, -1}}, true}, // crosses corners region
		{Segment{Point{10, 10}, Point{20, 20}}, true}, // touches corner
		{Segment{Point{-2, 0}, Point{0, -2}}, false},  // near corner, outside
		{Segment{Point{5, 10}, Point{5, 20}}, true},   // touches top edge
	}
	for _, c := range cases {
		if got := c.s.IntersectsRect(r); got != c.want {
			t.Errorf("IntersectsRect(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

// brute-force sampling oracle for segment/rect intersection
func bruteIntersects(s Segment, r Rect) bool {
	const n = 2000
	for i := 0; i <= n; i++ {
		t := float64(i) / n
		p := Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
		if r.ContainsPoint(p) {
			return true
		}
	}
	return false
}

func TestIntersectsRectAgainstSamplingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := Rect{
			Min: Point{rng.Float64() * 10, rng.Float64() * 10},
		}
		r.Max = Point{r.Min.X + rng.Float64()*5 + 0.5, r.Min.Y + rng.Float64()*5 + 0.5}
		s := Segment{
			Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5},
			Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5},
		}
		got := s.IntersectsRect(r)
		want := bruteIntersects(s, r)
		// The sampling oracle can miss razor-thin grazes, so only demand
		// agreement when the oracle says true, or when the exact distance
		// from the rect is comfortably positive.
		if want && !got {
			t.Fatalf("case %d: IntersectsRect(%v, %v) = false, oracle found inside point", i, s, r)
		}
		if got && !want {
			// verify the claim: some rect corner/edge must be within eps of s
			d := math.Min(
				math.Min(s.DistToPoint(r.Min), s.DistToPoint(r.Max)),
				math.Min(s.DistToPoint(Point{r.Min.X, r.Max.Y}), s.DistToPoint(Point{r.Max.X, r.Min.Y})),
			)
			if d > 0.01 && !bruteIntersects(s, r.Expand(1e-9)) {
				t.Fatalf("case %d: IntersectsRect(%v, %v) = true, oracle disagrees (corner dist %g)", i, s, r, d)
			}
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 3}}
	if r.Area() != 12 {
		t.Errorf("Area = %g, want 12", r.Area())
	}
	if r.Width() != 4 || r.Height() != 3 {
		t.Errorf("Width/Height = %g/%g", r.Width(), r.Height())
	}
	if c := r.Center(); c != (Point{2, 1.5}) {
		t.Errorf("Center = %v", c)
	}
	if r.IsEmpty() {
		t.Error("non-empty rect reported empty")
	}
	if !EmptyRect().IsEmpty() {
		t.Error("EmptyRect not empty")
	}
	if EmptyRect().Area() != 0 {
		t.Error("EmptyRect area != 0")
	}
}

func TestRectUnionIntersection(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	b := Rect{Point{1, 1}, Point{3, 3}}
	if got := a.Union(b); got != (Rect{Point{0, 0}, Point{3, 3}}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersection(b); got != (Rect{Point{1, 1}, Point{2, 2}}) {
		t.Errorf("Intersection = %v", got)
	}
	c := Rect{Point{5, 5}, Point{6, 6}}
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint Intersection not empty")
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := EmptyRect().Union(a); got != a {
		t.Errorf("empty Union a = %v, want %v", got, a)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	if !r.ContainsRect(Rect{Point{1, 1}, Point{9, 9}}) {
		t.Error("inner rect not contained")
	}
	if r.ContainsRect(Rect{Point{1, 1}, Point{11, 9}}) {
		t.Error("overhanging rect contained")
	}
	if !r.ContainsRect(r) {
		t.Error("rect does not contain itself")
	}
	if !r.ContainsRect(EmptyRect()) {
		t.Error("empty rect not contained")
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 5}, 0},
		{Point{-3, 5}, 3},
		{Point{5, 14}, 4},
		{Point{-3, -4}, 5},
		{Point{13, 14}, 5},
		{Point{0, 0}, 0},
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %g, want %g", c.p, got, c.want)
		}
		if got := r.MinDistSq(c.p); got != c.want*c.want {
			t.Errorf("MinDistSq(%v) = %g, want %g", c.p, got, c.want*c.want)
		}
	}
}

func TestMinMaxDistBoundsMinDist(t *testing.T) {
	// MINDIST <= MINMAXDIST for every rect/point pair (Roussopoulos §3).
	f := func(px, py, ax, ay, w, h float64) bool {
		px, py = math.Mod(px, 100), math.Mod(py, 100)
		ax, ay = math.Mod(ax, 100), math.Mod(ay, 100)
		w, h = math.Abs(math.Mod(w, 50))+0.01, math.Abs(math.Mod(h, 50))+0.01
		r := Rect{Point{ax, ay}, Point{ax + w, ay + h}}
		p := Point{px, py}
		return r.MinDist(p) <= r.MinMaxDist(p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxDistGuarantee(t *testing.T) {
	// If a segment's MBR is r, the distance from p to the segment can exceed
	// MinMaxDist(r) of the *segment's own MBR* only in pathological cases;
	// but for the canonical use (rect with an object touching each face) the
	// bound must hold for diagonal segments, which touch all four faces.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		s := Segment{
			Point{rng.Float64() * 100, rng.Float64() * 100},
			Point{rng.Float64() * 100, rng.Float64() * 100},
		}
		r := s.MBR()
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		if d := s.DistToPoint(p); d > r.MinMaxDist(p)+1e-9 {
			t.Fatalf("segment dist %g exceeds MinMaxDist %g (s=%v p=%v)", d, r.MinMaxDist(p), s, p)
		}
	}
}

func TestMinDistEuclideanLowerBound(t *testing.T) {
	// MinDist(p) must lower-bound the distance from p to any point in r.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		r := Rect{Point{rng.Float64() * 50, rng.Float64() * 50}, Point{}}
		r.Max = Point{r.Min.X + rng.Float64()*20, r.Min.Y + rng.Float64()*20}
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		q := Point{
			r.Min.X + rng.Float64()*r.Width(),
			r.Min.Y + rng.Float64()*r.Height(),
		}
		if r.MinDist(p) > p.Dist(q)+1e-9 {
			t.Fatalf("MinDist %g exceeds actual dist %g", r.MinDist(p), p.Dist(q))
		}
	}
}

func TestExpand(t *testing.T) {
	r := Rect{Point{2, 2}, Point{4, 4}}
	if got := r.Expand(1); got != (Rect{Point{1, 1}, Point{5, 5}}) {
		t.Errorf("Expand(1) = %v", got)
	}
	if got := r.Expand(-2); !got.IsEmpty() {
		t.Errorf("Expand(-2) = %v, want empty", got)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Point{3, 4}, Point{0, 0}
	if p.Dist(q) != 5 {
		t.Errorf("Dist = %g", p.Dist(q))
	}
	if p.DistSq(q) != 25 {
		t.Errorf("DistSq = %g", p.DistSq(q))
	}
	if p.Dot(Point{1, 2}) != 11 {
		t.Errorf("Dot = %g", p.Dot(Point{1, 2}))
	}
	if p.Cross(Point{1, 2}) != 2 {
		t.Errorf("Cross = %g", p.Cross(Point{1, 2}))
	}
}

func TestSegmentLengthMidpoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{6, 8}}
	if s.Length() != 10 {
		t.Errorf("Length = %g", s.Length())
	}
	if s.Midpoint() != (Point{3, 4}) {
		t.Errorf("Midpoint = %v", s.Midpoint())
	}
}

func TestDistSymmetryQuick(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectsRect(b *testing.B) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	s := Segment{Point{-5, 3}, Point{15, 8}}
	for i := 0; i < b.N; i++ {
		s.IntersectsRect(r)
	}
}

func BenchmarkDistToPoint(b *testing.B) {
	s := Segment{Point{0, 0}, Point{10, 7}}
	p := Point{4, 9}
	for i := 0; i < b.N; i++ {
		s.DistToPoint(p)
	}
}

// unionByMath is Union as it was written before the builtin min and max:
// math.Min and math.Max per coordinate.
func unionByMath(r, s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// TestUnionMatchesMathMinMax: Union equals the math.Min/math.Max form bit
// for bit on ±0, ±Inf, subnormals and finite values, and is NaN wherever
// that form is. Where a NaN meets the infinity on its side, that form gives
// the infinity (math.Min(-Inf, NaN) = -Inf) and Union NaN, as the builtin
// min and max do. Every ordered pair of the values meets as both a min and
// a max, then random rectangles over the values meet at random.
func TestUnionMatchesMathMinMax(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022, 1, 1.5, math.MaxFloat64,
		math.Inf(1), math.NaN(),
	}
	check := func(r, s Rect) {
		t.Helper()
		got, want := r.Union(s), unionByMath(r, s)
		g := [4]float64{got.Min.X, got.Min.Y, got.Max.X, got.Max.Y}
		w := [4]float64{want.Min.X, want.Min.Y, want.Max.X, want.Max.Y}
		rc := [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}
		sc := [4]float64{s.Min.X, s.Min.Y, s.Max.X, s.Max.Y}
		for i := range g {
			// Both rectangles taken and a NaN among the operands: the
			// builtins give NaN, math.Min/Max NaN or the infinity.
			nanIn := !r.IsEmpty() && !s.IsEmpty() && (math.IsNaN(rc[i]) || math.IsNaN(sc[i]))
			switch {
			case math.IsNaN(w[i]) || nanIn:
				if !math.IsNaN(g[i]) {
					t.Fatalf("%v ∪ %v: coordinate %d is %v, want NaN (math.Min/Max give %v)", r, s, i, g[i], w[i])
				}
			case math.Float64bits(g[i]) != math.Float64bits(w[i]):
				t.Fatalf("%v ∪ %v: coordinate %d is %v (%#x), math.Min/Max give %v (%#x)",
					r, s, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			check(Rect{Min: Point{a, b}, Max: Point{a, b}}, Rect{Min: Point{b, a}, Max: Point{b, a}})
		}
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 100000; i++ {
		check(Rect{Min: Point{pick(), pick()}, Max: Point{pick(), pick()}},
			Rect{Min: Point{pick(), pick()}, Max: Point{pick(), pick()}})
	}
}
