package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// randSegments builds n random short segments in a 1000×1000 extent.
func randSegments(n int, seed int64) []geom.Segment {
	rng := rand.New(rand.NewSource(seed))
	segs := make([]geom.Segment, n)
	for i := range segs {
		a := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		segs[i] = geom.Segment{
			A: a,
			B: geom.Point{X: a.X + rng.Float64()*20 - 10, Y: a.Y + rng.Float64()*20 - 10},
		}
	}
	return segs
}

func itemsOf(segs []geom.Segment) []Item {
	items := make([]Item, len(segs))
	for i, s := range segs {
		items[i] = Item{MBR: s.MBR(), ID: uint32(i)}
	}
	return items
}

func buildTest(t testing.TB, segs []geom.Segment, cfg Config) *Tree {
	t.Helper()
	tr, err := Build(itemsOf(segs), cfg, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildEmpty(t *testing.T) {
	tr, err := Build(nil, Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 0 || tr.NodeCount() != 0 {
		t.Fatalf("empty tree stats: %+v", tr.TreeStats())
	}
	if got := tr.Search(geom.Rect{Min: geom.Point{}, Max: geom.Point{X: 1, Y: 1}}, ops.Null{}); len(got) != 0 {
		t.Fatal("search on empty tree returned results")
	}
	if _, _, ok := tr.Nearest(geom.Point{}, nil, ops.Null{}); ok {
		t.Fatal("Nearest on empty tree reported ok")
	}
}

func TestBuildSingleItem(t *testing.T) {
	segs := []geom.Segment{{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}}
	tr := buildTest(t, segs, Config{})
	if tr.Height() != 1 || tr.NodeCount() != 1 || tr.Len() != 1 {
		t.Fatalf("single-item tree stats: %+v", tr.TreeStats())
	}
	ids := tr.Search(geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 3, Y: 3}}, ops.Null{})
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("Search = %v", ids)
	}
}

func TestBuildRejectsTinyNodes(t *testing.T) {
	if _, err := Build(itemsOf(randSegments(10, 1)), Config{NodeBytes: HeaderBytes + EntryBytes}, ops.Null{}); err == nil {
		t.Fatal("fanout-1 config accepted")
	}
}

func TestPackingInvariants(t *testing.T) {
	segs := randSegments(5000, 2)
	tr := buildTest(t, segs, Config{})
	st := tr.TreeStats()
	fanout := tr.Fanout()
	if fanout != (DefaultNodeBytes-HeaderBytes)/EntryBytes {
		t.Fatalf("fanout = %d", fanout)
	}
	wantLeaves := (5000 + fanout - 1) / fanout
	if st.LeafNodes != wantLeaves {
		t.Fatalf("leaf nodes = %d, want %d (packed full)", st.LeafNodes, wantLeaves)
	}
	// Every node except possibly the last of each level is full.
	byLevel := map[int16][]*node{}
	for i := range tr.nodes {
		byLevel[tr.nodes[i].level] = append(byLevel[tr.nodes[i].level], &tr.nodes[i])
	}
	for lvl, nodes := range byLevel {
		for i, n := range nodes {
			if i < len(nodes)-1 && len(n.entries) != fanout {
				t.Fatalf("level %d node %d has %d entries, want %d", lvl, i, len(n.entries), fanout)
			}
		}
	}
	// Parent MBR contains all child MBRs.
	for i := range tr.nodes {
		n := &tr.nodes[i]
		if n.level == 0 {
			continue
		}
		for _, e := range n.entries {
			child := &tr.nodes[e.ID]
			for _, ce := range child.entries {
				if !e.MBR.ContainsRect(ce.MBR) {
					t.Fatalf("parent MBR %v does not contain child entry %v", e.MBR, ce.MBR)
				}
			}
		}
	}
	// Node addresses are distinct, aligned, and within the index region.
	seen := map[uint64]bool{}
	for i := range tr.nodes {
		a := tr.nodes[i].addr
		if seen[a] {
			t.Fatalf("duplicate node address %#x", a)
		}
		seen[a] = true
		if (a-ops.IndexBase)%uint64(DefaultNodeBytes) != 0 {
			t.Fatalf("misaligned node address %#x", a)
		}
	}
	if got := tr.IndexBytes(); got != st.Nodes*DefaultNodeBytes {
		t.Fatalf("IndexBytes = %d", got)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	segs := randSegments(3000, 3)
	tr := buildTest(t, segs, Config{})
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 100; q++ {
		w := geom.Rect{Min: geom.Point{X: rng.Float64() * 950, Y: rng.Float64() * 950}}
		w.Max = geom.Point{X: w.Min.X + rng.Float64()*80, Y: w.Min.Y + rng.Float64()*80}
		got := tr.Search(w, ops.Null{})
		var want []uint32
		for i, s := range segs {
			if w.Intersects(s.MBR()) {
				want = append(want, uint32(i))
			}
		}
		sortU32(got)
		sortU32(want)
		if !equalU32(got, want) {
			t.Fatalf("query %d window %v: got %d ids, want %d", q, w, len(got), len(want))
		}
	}
}

func TestSearchPointMatchesBruteForce(t *testing.T) {
	segs := randSegments(2000, 5)
	tr := buildTest(t, segs, Config{})
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 200; q++ {
		var p geom.Point
		if q%2 == 0 { // half the probes on actual endpoints so hits occur
			s := segs[rng.Intn(len(segs))]
			p = s.A
		} else {
			p = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		got := tr.SearchPoint(p, ops.Null{})
		var want []uint32
		for i, s := range segs {
			if s.MBR().ContainsPoint(p) {
				want = append(want, uint32(i))
			}
		}
		sortU32(got)
		sortU32(want)
		if !equalU32(got, want) {
			t.Fatalf("point query %d at %v: got %v want %v", q, p, got, want)
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	segs := randSegments(2000, 7)
	tr := buildTest(t, segs, Config{})
	rng := rand.New(rand.NewSource(8))
	dist := func(id uint32) float64 { return 0 } // replaced per query
	_ = dist
	for q := 0; q < 150; q++ {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		df := func(id uint32) float64 { return segs[id].DistToPoint(p) }
		id, d, ok := tr.Nearest(p, df, ops.Null{})
		if !ok {
			t.Fatal("Nearest found nothing")
		}
		best := math.Inf(1)
		for _, s := range segs {
			if dd := s.DistToPoint(p); dd < best {
				best = dd
			}
		}
		if math.Abs(d-best) > 1e-9 {
			t.Fatalf("query %d at %v: NN dist %g (id %d), brute force %g", q, p, d, id, best)
		}
		if got := segs[id].DistToPoint(p); math.Abs(got-d) > 1e-9 {
			t.Fatalf("returned id %d has dist %g, reported %g", id, got, d)
		}
	}
}

func TestNearestPruningActuallyPrunes(t *testing.T) {
	segs := randSegments(5000, 9)
	tr := buildTest(t, segs, Config{})
	var rec ops.Counts
	p := geom.Point{X: 500, Y: 500}
	tr.Nearest(p, func(id uint32) float64 { return segs[id].DistToPoint(p) }, &rec)
	visits := rec.Ops[ops.OpNodeVisit]
	if visits >= int64(tr.NodeCount())/2 {
		t.Fatalf("NN visited %d of %d nodes — pruning not effective", visits, tr.NodeCount())
	}
}

func TestInstrumentationEmitsTrace(t *testing.T) {
	segs := randSegments(1000, 10)
	var buildRec ops.Counts
	tr, err := Build(itemsOf(segs), Config{}, &buildRec)
	if err != nil {
		t.Fatal(err)
	}
	if buildRec.Ops[ops.OpIndexBuildEntry] < int64(len(segs)) {
		t.Fatalf("build entries = %d, want >= %d", buildRec.Ops[ops.OpIndexBuildEntry], len(segs))
	}
	if buildRec.StoreBytes == 0 {
		t.Fatal("build emitted no stores")
	}
	var rec ops.Counts
	w := geom.Rect{Min: geom.Point{X: 100, Y: 100}, Max: geom.Point{X: 300, Y: 300}}
	ids := tr.Search(w, &rec)
	if rec.Ops[ops.OpMBRTest] == 0 || rec.Ops[ops.OpNodeVisit] == 0 {
		t.Fatal("search emitted no filtering ops")
	}
	if rec.Ops[ops.OpResultAppend] != int64(len(ids)) {
		t.Fatalf("result appends %d != results %d", rec.Ops[ops.OpResultAppend], len(ids))
	}
	if rec.LoadBytes == 0 {
		t.Fatal("search emitted no loads")
	}
}

func TestHilbertPackingBeatsXSortOnWindowQueries(t *testing.T) {
	// The point of Hilbert packing: window queries touch fewer nodes than
	// with a 1-D x-sort. This is the design choice behind the paper's index
	// (and our packing ablation bench).
	segs := randSegments(20000, 11)
	hilb := buildTest(t, segs, Config{})
	xsort := buildTest(t, segs, Config{Packing: PackingXSort})
	rng := rand.New(rand.NewSource(12))
	var hv, xv int64
	for q := 0; q < 50; q++ {
		w := geom.Rect{Min: geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}}
		w.Max = geom.Point{X: w.Min.X + 50, Y: w.Min.Y + 50}
		var hr, xr ops.Counts
		hilb.Search(w, &hr)
		xsort.Search(w, &xr)
		hv += hr.Ops[ops.OpNodeVisit]
		xv += xr.Ops[ops.OpNodeVisit]
	}
	if hv >= xv {
		t.Fatalf("Hilbert packing visited %d nodes, x-sort %d — expected Hilbert to win", hv, xv)
	}
}

func TestPackOrderIsHilbertSorted(t *testing.T) {
	segs := randSegments(500, 13)
	tr := buildTest(t, segs, Config{})
	if len(tr.PackOrder()) != len(segs) {
		t.Fatalf("PackOrder length %d", len(tr.PackOrder()))
	}
	// All original ids present exactly once.
	seen := make([]bool, len(segs))
	for _, it := range tr.PackOrder() {
		if seen[it.ID] {
			t.Fatalf("id %d duplicated in pack order", it.ID)
		}
		seen[it.ID] = true
	}
}

func sortU32(v []uint32) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkBuild10k(b *testing.B) {
	items := itemsOf(randSegments(10000, 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(items, Config{}, ops.Null{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	segs := randSegments(50000, 21)
	tr := buildTest(b, segs, Config{})
	w := geom.Rect{Min: geom.Point{X: 400, Y: 400}, Max: geom.Point{X: 450, Y: 450}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(w, ops.Null{})
	}
}

func BenchmarkNearest(b *testing.B) {
	segs := randSegments(50000, 22)
	tr := buildTest(b, segs, Config{})
	p := geom.Point{X: 512, Y: 377}
	df := func(id uint32) float64 { return segs[id].DistToPoint(p) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(p, df, ops.Null{})
	}
}

func TestSTRPackingCorrectAndCompetitive(t *testing.T) {
	segs := randSegments(20000, 14)
	str := buildTest(t, segs, Config{Packing: PackingSTR})
	hilb := buildTest(t, segs, Config{})
	// Correctness: identical answers.
	rng := rand.New(rand.NewSource(15))
	var sv, hv int64
	for q := 0; q < 50; q++ {
		w := geom.Rect{Min: geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}}
		w.Max = geom.Point{X: w.Min.X + 50, Y: w.Min.Y + 50}
		var sr, hr ops.Counts
		a := str.Search(w, &sr)
		b := hilb.Search(w, &hr)
		sortU32(a)
		sortU32(b)
		if !equalU32(a, b) {
			t.Fatalf("query %d: STR %d ids, Hilbert %d", q, len(a), len(b))
		}
		sv += sr.Ops[ops.OpNodeVisit]
		hv += hr.Ops[ops.OpNodeVisit]
	}
	// STR is a serious packing: it must land within 2× of Hilbert on node
	// visits (both far below the x-sort strawman).
	if sv > 2*hv {
		t.Fatalf("STR visits %d vs Hilbert %d — implausibly bad", sv, hv)
	}
	xsort := buildTest(t, segs, Config{Packing: PackingXSort})
	var xr ops.Counts
	for q := 0; q < 20; q++ {
		w := geom.Rect{Min: geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}}
		w.Max = geom.Point{X: w.Min.X + 50, Y: w.Min.Y + 50}
		xsort.Search(w, &xr)
	}
	if xr.Ops[ops.OpNodeVisit]/20 < sv/50 {
		t.Fatalf("x-sort unexpectedly beat STR per query")
	}
}
