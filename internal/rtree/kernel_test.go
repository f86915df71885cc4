package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// kernelWindows returns n seeded windows over segs' 1000×1000 extent that
// cover what the kernel special-cases: ordinary windows of every size,
// degenerate (point) windows on and off the data, the whole extent and
// beyond (root contained), inverted and NaN windows, windows wholly outside
// the bounds, and windows whose edge coincides with an item MBR's edge —
// exactly that MBR, and the four closed-interval touches.
func kernelWindows(segs []geom.Segment, bounds geom.Rect, n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	nan := math.NaN()
	out := []geom.Rect{
		bounds,
		bounds.Expand(1),
		{Min: geom.Point{X: 10, Y: 10}, Max: geom.Point{X: 5, Y: 20}}, // inverted
		geom.EmptyRect(),
		{Min: geom.Point{X: nan, Y: 0}, Max: geom.Point{X: 500, Y: 500}},
		{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 500, Y: nan}},
		{Min: geom.Point{X: -500, Y: -500}, Max: geom.Point{X: -100, Y: -100}},
		{Min: geom.Point{X: 2000, Y: 0}, Max: geom.Point{X: 3000, Y: 1000}},
		{Min: geom.Point{X: bounds.Max.X, Y: bounds.Max.Y}, Max: geom.Point{X: bounds.Max.X + 5, Y: bounds.Max.Y + 5}},
	}
	for len(out) < n {
		m := segs[rng.Intn(len(segs))].MBR()
		switch rng.Intn(8) {
		case 0: // a point, on an item's corner
			out = append(out, geom.Rect{Min: m.Min, Max: m.Min})
		case 1: // a point, anywhere
			p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			out = append(out, geom.Rect{Min: p, Max: p})
		case 2: // exactly an item's MBR: contained with all four edges equal
			out = append(out, m)
		case 3: // touching an item's MBR along one edge, from outside
			d := 1 + rng.Float64()*40
			switch rng.Intn(4) {
			case 0:
				out = append(out, geom.Rect{Min: geom.Point{X: m.Min.X - d, Y: m.Min.Y - d}, Max: geom.Point{X: m.Min.X, Y: m.Max.Y + d}})
			case 1:
				out = append(out, geom.Rect{Min: geom.Point{X: m.Max.X, Y: m.Min.Y - d}, Max: geom.Point{X: m.Max.X + d, Y: m.Max.Y + d}})
			case 2:
				out = append(out, geom.Rect{Min: geom.Point{X: m.Min.X - d, Y: m.Min.Y - d}, Max: geom.Point{X: m.Max.X + d, Y: m.Min.Y}})
			default:
				out = append(out, geom.Rect{Min: geom.Point{X: m.Min.X - d, Y: m.Max.Y}, Max: geom.Point{X: m.Max.X + d, Y: m.Max.Y + d}})
			}
		default: // an ordinary window, from a few units to most of the extent
			side := math.Pow(10, rng.Float64()*3) // 1 … 1000
			c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			out = append(out, geom.Rect{
				Min: geom.Point{X: c.X - side/2, Y: c.Y - side*rng.Float64()},
				Max: geom.Point{X: c.X + side/2, Y: c.Y + side*rng.Float64()},
			})
		}
	}
	return out
}

// TestKernelMatchesInstrumentedWalk is the kernel's contract: for every
// packing, for item counts on and off the fanout's multiples, and for
// windows of every special shape (the last node of every level, whose
// subtree ends the leaf level ragged, among them), the untraced walk returns
// the instrumented walk's ids as a sequence; refined from the leaves
// (AppendRange) it returns that sequence filtered by the exact
// segment–window test; and the point kernel (AppendPoint at the window's
// centre) returns the instrumented point walk's sequence filtered by
// incidence within eps. Asked for records, every walk returns the same ids
// with each one's own segment beside it; asked for counts, every walk
// tallies the instrumented walk's, field for field, whatever it skipped.
func TestKernelMatchesInstrumentedWalk(t *testing.T) {
	fanout := Config{NodeBytes: DefaultNodeBytes}.fanout()
	sizes := []struct{ items, windows int }{
		{1, 200}, {fanout, 200}, {fanout + 1, 200}, {fanout*fanout - 1, 300}, {139006, 60},
	}
	packings := []Packing{PackingHilbert, PackingSTR, PackingXSort}
	total := 0
	for _, sz := range sizes {
		segs := randSegments(sz.items, int64(sz.items))
		for _, pk := range packings {
			tr := buildTest(t, segs, Config{Packing: pk})
			name := fmt.Sprintf("n=%d/packing=%d", sz.items, pk)
			var ref, got, fused, want []uint32
			var recs []geom.Segment
			var refC, gotC ops.Counts
			windows := append(kernelWindows(segs, tr.Bounds(), sz.windows, int64(pk)+7), lastNodeWindows(tr)...)
			for qi, w := range windows {
				total++
				refC = ops.Counts{}
				ref = tr.AppendSearch(ref[:0], w, &refC)
				got = tr.AppendSearch(got[:0], w, ops.Null{})
				if !equalU32(got, ref) {
					t.Fatalf("%s window %d %v: filter kernel %d ids, instrumented %d (or order differs)", name, qi, w, len(got), len(ref))
				}
				recs, gotC = recs[:0], ops.Counts{}
				got = tr.AppendRange(got[:0], &recs, w, false, &gotC)
				checkRecords(t, name+" filter", segs, ref, got, recs)
				checkCounts(t, fmt.Sprintf("%s window %d %v filter", name, qi, w), refC, gotC)

				recs, gotC = recs[:0], ops.Counts{}
				fused = tr.AppendRange(fused[:0], &recs, w, true, &gotC)
				want = want[:0]
				for _, id := range ref {
					if segs[id].IntersectsRect(w) {
						want = append(want, id)
					}
				}
				if !equalU32(fused, want) {
					t.Fatalf("%s window %d %v: refined kernel %d ids, refined instrumented walk %d (or order differs)", name, qi, w, len(fused), len(want))
				}
				checkRecords(t, name+" range", segs, want, fused, recs)
				checkCounts(t, fmt.Sprintf("%s window %d %v range", name, qi, w), refC, gotC)

				pt := w.Center()
				refC = ops.Counts{}
				ref = tr.AppendSearchPoint(ref[:0], pt, &refC)
				want = want[:0]
				for _, id := range ref {
					if segs[id].ContainsPoint(pt, kernelEps) {
						want = append(want, id)
					}
				}
				gotC = ops.Counts{}
				if got = tr.AppendPoint(got[:0], nil, pt, kernelEps, &gotC); !equalU32(got, want) {
					t.Fatalf("%s window %d: point kernel at %v %d ids, refined instrumented walk %d (or order differs)", name, qi, pt, len(got), len(want))
				}
				checkCounts(t, fmt.Sprintf("%s window %d point %v", name, qi, pt), refC, gotC)
				recs = recs[:0]
				got = tr.AppendPoint(got[:0], &recs, pt, kernelEps, nil)
				checkRecords(t, name+" point", segs, want, got, recs)
			}
		}
	}
	if total < 2000 {
		t.Fatalf("only %d windows exercised, want >= 2000", total)
	}
}

// lastNodeWindows returns the MBR of the last node of every level of tr.
// Each contains that node's subtree, which the kernel appends as one run
// over the ragged end of the leaf level (the root's is the whole tree).
func lastNodeWindows(tr *Tree) []geom.Rect {
	var out []geom.Rect
	for i := range tr.nodes {
		if i+1 < len(tr.nodes) && tr.nodes[i+1].level == tr.nodes[i].level {
			continue
		}
		mbr := geom.EmptyRect()
		for _, e := range tr.nodes[i].entries {
			mbr = mbr.Union(e.MBR)
		}
		out = append(out, mbr)
	}
	return out
}

// checkCounts fails unless a kernel walk tallied the instrumented walk's
// counts, field for field.
func checkCounts(t *testing.T, what string, want, got ops.Counts) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: kernel tallied\n %+v\nthe instrumented walk records\n %+v", what, got, want)
	}
}

// checkRecords fails unless a records walk answered the ids of its id-only
// twin, each beside its own segment.
func checkRecords(t *testing.T, what string, segs []geom.Segment, want, ids []uint32, recs []geom.Segment) {
	t.Helper()
	if !equalU32(ids, want) || len(recs) != len(ids) {
		t.Fatalf("%s: records walk %d ids and %d segments, id walk %d ids", what, len(ids), len(recs), len(want))
	}
	for i, id := range ids {
		if recs[i] != segs[id] {
			t.Fatalf("%s: id %d carries %v, its segment is %v", what, id, recs[i], segs[id])
		}
	}
}

// kernelEps is the point queries' incidence tolerance in these tests: wide
// enough on the 1000×1000 extent that a point near a segment is a hit.
const kernelEps = 0.5

// TestKernelAppendsAfterPrefix: dst's existing contents are never touched.
func TestKernelAppendsAfterPrefix(t *testing.T) {
	segs := randSegments(3000, 5)
	tr := buildTest(t, segs, Config{})
	w := geom.Rect{Min: geom.Point{X: 100, Y: 100}, Max: geom.Point{X: 600, Y: 700}}
	prefix := []uint32{7, 8, 9}
	for _, c := range []struct {
		name      string
		got, want []uint32
	}{
		{"filter", tr.AppendSearch(slices.Clone(prefix), w, ops.Null{}), tr.AppendSearch(nil, w, &ops.Counts{})},
		{"range", tr.AppendRange(slices.Clone(prefix), nil, w, true, nil), tr.AppendRange(nil, nil, w, true, nil)},
		{"point", tr.AppendPoint(slices.Clone(prefix), nil, segs[9].A, 0, nil), tr.AppendPoint(nil, nil, segs[9].A, 0, nil)},
	} {
		if len(c.want) == 0 || !equalU32(c.got[:3], prefix) || !equalU32(c.got[3:], c.want) {
			t.Fatalf("%s: prefix or answer disturbed: %d ids after a 3-id prefix, want %d", c.name, len(c.got)-3, len(c.want))
		}
	}
}

// TestKernelStandsDownOnIrregularMBRs: an empty or NaN item MBR satisfies
// raw compares that Rect.Intersects rejects, so such a tree must keep
// answering through the reference walk, refined or not, and tally the
// instrumented walk's counts; the point kernel needs no reference walk, and
// must agree with the instrumented one too, answer and counts.
func TestKernelStandsDownOnIrregularMBRs(t *testing.T) {
	segs := randSegments(500, 11)
	items := itemsOf(segs)
	items[17].MBR = geom.Rect{Min: geom.Point{X: 600, Y: 600}, Max: geom.Point{X: 400, Y: 400}}
	items[290].MBR.Max.Y = math.NaN()
	tr, err := Build(items, Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.plain {
		t.Fatal("tree with an inverted and a NaN item MBR reported plain")
	}
	leafSegs := make([]geom.Segment, len(items))
	for i, it := range items {
		leafSegs[i] = it.Seg()
	}
	var recs []geom.Segment
	for qi, w := range kernelWindows(segs, tr.Bounds(), 300, 3) {
		var refC, gotC ops.Counts
		ref := tr.AppendSearch(nil, w, &refC)
		if got := tr.AppendSearch(nil, w, ops.Null{}); !equalU32(got, ref) {
			t.Fatalf("window %d %v: %d ids, instrumented walk %d", qi, w, len(got), len(ref))
		}
		recs = recs[:0]
		got := tr.AppendRange(nil, &recs, w, false, &gotC)
		checkRecords(t, "irregular filter", leafSegs, ref, got, recs)
		checkCounts(t, fmt.Sprintf("irregular window %d %v filter", qi, w), refC, gotC)
		var want []uint32
		for _, id := range ref {
			if items[id].Seg().IntersectsRect(w) {
				want = append(want, id)
			}
		}
		if got := tr.AppendRange(nil, nil, w, true, nil); !equalU32(got, want) {
			t.Fatalf("window %d %v: refined %d ids, want %d", qi, w, len(got), len(want))
		}
		recs, gotC = recs[:0], ops.Counts{}
		got = tr.AppendRange(nil, &recs, w, true, &gotC)
		checkRecords(t, "irregular range", leafSegs, want, got, recs)
		checkCounts(t, fmt.Sprintf("irregular window %d %v range", qi, w), refC, gotC)
		pt := w.Min
		want = want[:0]
		refC = ops.Counts{}
		for _, id := range tr.AppendSearchPoint(nil, pt, &refC) {
			if items[id].Seg().ContainsPoint(pt, kernelEps) {
				want = append(want, id)
			}
		}
		gotC = ops.Counts{}
		if got := tr.AppendPoint(nil, nil, pt, kernelEps, &gotC); !equalU32(got, want) {
			t.Fatalf("window %d: point kernel at %v %d ids, want %d", qi, pt, len(got), len(want))
		}
		checkCounts(t, fmt.Sprintf("irregular window %d point %v", qi, pt), refC, gotC)
	}
}

// TestKNNKernelZeroAlloc: a warm scratch answers k-NN at k 1, 8 and 64
// without allocating, through a KNearestCollect fold, at the default fanout
// and at fanout 102 (NodeBytes 2048).
func TestKNNKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	segs := randSegments(50000, 8)
	rng := rand.New(rand.NewSource(9))
	points := make([]geom.Point, 64)
	for i := range points {
		points[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	for _, nodeBytes := range []int{0, 2048} {
		tr := buildTest(t, segs, Config{NodeBytes: nodeBytes})
		for _, k := range []int{1, 8, 64} {
			var sc NNScratch
			var nbs []Neighbor
			i := 0
			run := func() {
				p := points[i%len(points)]
				i++
				sc.ResetKNN()
				tr.KNearestCollect(p, k, nil, &sc, nil)
				nbs = sc.DrainKNNAppend(nbs[:0])
			}
			for range points {
				run()
			}
			if n := testing.AllocsPerRun(200, run); n != 0 {
				t.Errorf("node=%d k=%d: %.1f allocs per warm k-NN, want 0", nodeBytes, k, n)
			}
		}
	}
}

// TestInstrumentedStreamPinned fixes the op and access counts the
// instrumented walks emit for one seeded query set. The numbers were
// recorded from the commit before the serving kernel existed: the
// simulator's stream must not move when the serving path does.
func TestInstrumentedStreamPinned(t *testing.T) {
	segs := randSegments(20000, 42)
	tr := buildTest(t, segs, Config{})
	rng := rand.New(rand.NewSource(43))
	var rangeC, nnC, knnC ops.Counts
	var sc NNScratch
	for q := 0; q < 200; q++ {
		c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		half := 1 + rng.Float64()*60
		w := geom.Rect{Min: geom.Point{X: c.X - half, Y: c.Y - half}, Max: geom.Point{X: c.X + half, Y: c.Y + half}}
		tr.AppendSearch(nil, w, &rangeC)
		tr.AppendSearchPoint(nil, segs[rng.Intn(len(segs))].A, &rangeC)
		dist := func(id uint32) float64 { return segs[id].DistToPoint(c) }
		tr.NearestWith(c, dist, &nnC, &sc)
		tr.KNearestAppend(nil, c, 8, dist, &knnC, &sc)
	}
	type pin struct {
		name string
		got  ops.Counts
		want [8]int64 // MBRTest NodeVisit DistCalc HeapOp ResultAppend LoadCalls LoadBytes StoreBytes
	}
	for _, p := range []pin{
		{"range+point", rangeC, pinnedRange},
		{"nn", nnC, pinnedNN},
		{"knn", knnC, pinnedKNN},
	} {
		got := [8]int64{
			p.got.Ops[ops.OpMBRTest], p.got.Ops[ops.OpNodeVisit], p.got.Ops[ops.OpDistCalc], p.got.Ops[ops.OpHeapOp],
			p.got.Ops[ops.OpResultAppend], p.got.LoadCalls, p.got.LoadBytes, p.got.StoreBytes,
		}
		if got != p.want {
			t.Errorf("%s stream moved:\n got  %v\n want %v", p.name, got, p.want)
		}
	}
}

// MBRTest NodeVisit DistCalc HeapOp ResultAppend LoadCalls LoadBytes StoreBytes
var (
	pinnedRange = [8]int64{84913, 3843, 0, 0, 21439, 88756, 1729004, 85756}
	pinnedNN    = [8]int64{26643, 1285, 41336, 14693, 0, 27928, 543140, 0}
	pinnedKNN   = [8]int64{34803, 1615, 34803, 25639, 0, 36418, 708980, 0}
)
