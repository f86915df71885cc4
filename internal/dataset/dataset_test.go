package dataset

import (
	"math"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{},
		{NumSegments: 10, RecordBytes: 8, Extent: geom.Rect{Max: geom.Point{X: 1, Y: 1}}, StreetSegs: [2]int{1, 2}, SegLen: [2]float64{1, 2}},
		{NumSegments: 10, RecordBytes: 76, StreetSegs: [2]int{1, 2}, SegLen: [2]float64{1, 2}}, // empty extent
		{NumSegments: 10, RecordBytes: 76, Extent: geom.Rect{Max: geom.Point{X: 1, Y: 1}}, StreetSegs: [2]int{2, 1}, SegLen: [2]float64{1, 2}},
		{NumSegments: 10, RecordBytes: 76, Extent: geom.Rect{Max: geom.Point{X: 1, Y: 1}}, StreetSegs: [2]int{1, 2}, SegLen: [2]float64{0, 2}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPADatasetMatchesPaperFigures(t *testing.T) {
	d := PA()
	if d.Len() != 139006 {
		t.Fatalf("PA segments = %d, want 139006", d.Len())
	}
	// 10.06 MB within 1%.
	if got, want := float64(d.TotalBytes()), 10.06*1024*1024; math.Abs(got-want)/want > 0.01 {
		t.Fatalf("PA bytes = %.2f MB, want ≈10.06 MB", got/1024/1024)
	}
	for i, s := range d.Segments {
		if !d.Extent.ContainsPoint(s.A) || !d.Extent.ContainsPoint(s.B) {
			t.Fatalf("segment %d outside extent: %v", i, s)
		}
	}
}

func TestNYCDatasetMatchesPaperFigures(t *testing.T) {
	d := NYC()
	if d.Len() != 38778 {
		t.Fatalf("NYC segments = %d, want 38778", d.Len())
	}
	if got, want := float64(d.TotalBytes()), 7.09*1024*1024; math.Abs(got-want)/want > 0.01 {
		t.Fatalf("NYC bytes = %.2f MB, want ≈7.09 MB", got/1024/1024)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(PAConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(PAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatalf("segment %d differs across runs", i)
		}
	}
}

func TestPAIndexSizeNearPaper(t *testing.T) {
	// Paper: packed R-tree over PA takes ≈3.56 MB; our 20-byte-entry layout
	// should land in the same ballpark (±25%).
	d := PA()
	tr, err := rtree.Build(d.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	gotMB := float64(tr.IndexBytes()) / 1024 / 1024
	if gotMB < 2.5 || gotMB > 4.5 {
		t.Fatalf("PA index = %.2f MB, want ≈3.56 MB ballpark", gotMB)
	}
}

func TestDatasetIsClustered(t *testing.T) {
	// The synthetic network must be non-uniform: compare occupancy variance
	// across a coarse grid to the expectation under uniformity.
	d := PA()
	const g = 16
	var counts [g][g]int
	for _, s := range d.Segments {
		m := s.Midpoint()
		x := int((m.X - d.Extent.Min.X) / d.Extent.Width() * g)
		y := int((m.Y - d.Extent.Min.Y) / d.Extent.Height() * g)
		if x >= g {
			x = g - 1
		}
		if y >= g {
			y = g - 1
		}
		counts[x][y]++
	}
	mean := float64(d.Len()) / (g * g)
	var varSum float64
	for x := 0; x < g; x++ {
		for y := 0; y < g; y++ {
			dlt := float64(counts[x][y]) - mean
			varSum += dlt * dlt
		}
	}
	cv := math.Sqrt(varSum/(g*g)) / mean
	if cv < 0.5 {
		t.Fatalf("coefficient of variation %.2f — dataset looks uniform, want clustered", cv)
	}
}

func TestRecordAddrLayout(t *testing.T) {
	d := PA()
	if d.RecordAddr(0) != ops.DataBase {
		t.Fatal("record 0 not at DataBase")
	}
	if d.RecordAddr(10)-d.RecordAddr(9) != uint64(d.RecordBytes) {
		t.Fatal("records not contiguous")
	}
}

func TestPointQueriesHitData(t *testing.T) {
	d := NYC()
	pts := PointQueries(d, 50, 7)
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	tr, err := rtree.Build(d.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if len(tr.SearchPoint(p, ops.Null{})) == 0 {
			t.Fatalf("point query %d at %v hits nothing (endpoints must hit)", i, p)
		}
	}
}

func TestRangeQueriesMatchPaperDistribution(t *testing.T) {
	d := PA()
	wins := RangeQueries(d, 200, 9)
	ext := d.Extent.Area()
	for i, w := range wins {
		frac := w.Area() / ext
		// Clamping can shave the window at the border, so allow the lower
		// bound some slack; the upper bound is exact.
		if frac > 0.0101 || frac < 0.9e-4*0.5 {
			t.Fatalf("window %d area fraction %g outside [0.01%%,1%%]", i, frac)
		}
		if !d.Extent.ContainsRect(w) {
			t.Fatalf("window %d escapes the extent", i)
		}
	}
}

func TestNNQueriesInExtent(t *testing.T) {
	d := PA()
	for i, p := range NNQueries(d, 100, 11) {
		if !d.Extent.ContainsPoint(p) {
			t.Fatalf("NN query %d at %v outside extent", i, p)
		}
	}
}

func TestProximitySequence(t *testing.T) {
	d := PA()
	const y = 40
	seq := ProximitySequence(d, y, 0.01, 13)
	if len(seq) != y+1 {
		t.Fatalf("sequence length %d, want %d", len(seq), y+1)
	}
	anchor := seq[0].Center()
	r := math.Min(d.Extent.Width(), d.Extent.Height()) * 0.01
	for i, w := range seq[1:] {
		if w.Center().Dist(anchor) > 3*r {
			t.Fatalf("follow-up %d strays %.0f m from anchor (limit %.0f)", i, w.Center().Dist(anchor), 3*r)
		}
	}
}

func TestSummary(t *testing.T) {
	d := NYC()
	s := d.Summary()
	if s.Segments != d.Len() || s.TotalBytes != d.TotalBytes() {
		t.Fatalf("summary mismatch: %+v", s)
	}
	if s.MeanSegLen < 40 || s.MeanSegLen > 140 {
		t.Fatalf("NYC mean segment length %.1f m outside configured range", s.MeanSegLen)
	}
}

func BenchmarkGeneratePA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(PAConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]int{"pa": 139006, "PA": 139006, "nyc": 38778, "NYC": 38778} {
		ds, err := ByName(name)
		if err != nil || ds.Len() != want {
			t.Fatalf("ByName(%q) = %v segments, err %v; want %d", name, ds.Len(), err, want)
		}
	}
	if _, err := ByName("sf"); err == nil {
		t.Fatal("ByName accepted an unknown dataset")
	}
}
