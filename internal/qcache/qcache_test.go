package qcache

import (
	"math"
	"testing"

	"mobispatial/internal/geom"
)

func rect(x0, y0, x1, y1 float64) geom.Rect {
	return geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
}

func TestRangeKeySnapsJitterToOneEntry(t *testing.T) {
	const cell = 100.0
	a, snapA, ok := RangeKey(rect(10, 10, 90, 90), cell, false)
	if !ok {
		t.Fatal("window should be cacheable")
	}
	b, snapB, ok := RangeKey(rect(12.5, 7.25, 93, 88), cell, false)
	if !ok {
		t.Fatal("jittered window should be cacheable")
	}
	if a != b {
		t.Fatalf("jittered windows in the same cells should share a key: %v vs %v", a, b)
	}
	if snapA != snapB {
		t.Fatalf("snapped windows differ: %v vs %v", snapA, snapB)
	}
	want := rect(0, 0, 100, 100)
	if snapA != want {
		t.Fatalf("snap = %v, want %v", snapA, want)
	}
}

func TestRangeKeyBoundaryStraddle(t *testing.T) {
	const cell = 100.0
	// Straddles the x=100 grid line: the snap must widen to cover both cells.
	k, snap, ok := RangeKey(rect(90, 10, 110, 90), cell, false)
	if !ok {
		t.Fatal("straddling window should be cacheable")
	}
	if want := rect(0, 0, 200, 100); snap != want {
		t.Fatalf("snap = %v, want %v", snap, want)
	}
	in, _, _ := RangeKey(rect(10, 10, 90, 90), cell, false)
	if k == in {
		t.Fatal("straddling window must not collide with the single-cell window")
	}
	// Exactly on the boundary: Max.X = 100 floors into cell 1, so the snap
	// still covers the closed window.
	_, snap, ok = RangeKey(rect(10, 10, 100, 90), cell, false)
	if !ok || !snap.ContainsRect(rect(10, 10, 100, 90)) {
		t.Fatalf("boundary window not covered by snap %v", snap)
	}
	// Negative coordinates floor toward -inf, not toward zero.
	_, snap, ok = RangeKey(rect(-10, -10, 10, 10), cell, false)
	if !ok {
		t.Fatal("negative window should be cacheable")
	}
	if want := rect(-100, -100, 100, 100); snap != want {
		t.Fatalf("negative snap = %v, want %v", snap, want)
	}
}

func TestRangeKeyFilterKindSeparate(t *testing.T) {
	w := rect(10, 10, 90, 90)
	a, _, _ := RangeKey(w, 100, false)
	b, _, _ := RangeKey(w, 100, true)
	if a == b {
		t.Fatal("exact and filter range keys must not collide")
	}
	if a.Kind() != KindRange || b.Kind() != KindRangeFilter {
		t.Fatalf("kinds = %v, %v", a.Kind(), b.Kind())
	}
}

func TestRangeKeyUncacheable(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		w    geom.Rect
		cell float64
	}{
		{"inverted", rect(10, 10, -10, 20), 100},
		{"empty-canonical", geom.EmptyRect(), 100},
		{"nan-min", rect(nan, 0, 1, 1), 100},
		{"nan-max", rect(0, 0, 1, nan), 100},
		{"inf-max", rect(0, 0, inf, 1), 100},
		{"neg-inf-min", rect(math.Inf(-1), 0, 1, 1), 100},
		{"overflow", rect(0, 0, 1e18, 1), 100},
		{"zero-cell", rect(0, 0, 1, 1), 0},
		{"nan-cell", rect(0, 0, 1, 1), nan},
	}
	for _, tc := range cases {
		if _, _, ok := RangeKey(tc.w, tc.cell, false); ok {
			t.Errorf("%s: should be uncacheable", tc.name)
		}
	}
}

func TestPointKey(t *testing.T) {
	k, cr, ok := PointKey(geom.Point{X: 150, Y: -50}, 100)
	if !ok {
		t.Fatal("point should be cacheable")
	}
	if want := rect(100, -100, 200, 0); cr != want {
		t.Fatalf("cell rect = %v, want %v", cr, want)
	}
	if !cr.ContainsPoint(geom.Point{X: 150, Y: -50}) {
		t.Fatal("cell must contain the point")
	}
	k2, _, _ := PointKey(geom.Point{X: 199.9, Y: -0.1}, 100)
	if k != k2 {
		t.Fatal("points in one cell must share a key")
	}
	if _, _, ok := PointKey(geom.Point{X: math.NaN(), Y: 0}, 100); ok {
		t.Fatal("NaN point should be uncacheable")
	}
	if _, _, ok := PointKey(geom.Point{X: math.Inf(1), Y: 0}, 100); ok {
		t.Fatal("Inf point should be uncacheable")
	}
}

func TestNNKey(t *testing.T) {
	p := geom.Point{X: 1.5, Y: -2.25}
	k0, ok := NNKey(p, 0)
	if !ok {
		t.Fatal("NN key should build")
	}
	k1, _ := NNKey(p, 1)
	if k0 != k1 {
		t.Fatal("k=0 and k=1 must share an entry")
	}
	k5, _ := NNKey(p, 5)
	if k5 == k1 {
		t.Fatal("different k must not collide")
	}
	if _, ok := NNKey(geom.Point{X: math.NaN()}, 1); ok {
		t.Fatal("NaN point should be uncacheable")
	}
	if _, ok := NNKey(p, 1<<17); ok {
		t.Fatal("oversized k should be uncacheable")
	}
}

func TestNNCellKey(t *testing.T) {
	p, q := geom.Point{X: 101, Y: -2.25}, geom.Point{X: 199.5, Y: -99}
	kp, cell, ok := NNCellKey(p, 0, 100)
	if !ok || cell != (geom.Rect{Min: geom.Point{X: 100, Y: -100}, Max: geom.Point{X: 200, Y: 0}}) {
		t.Fatalf("NN cell key of %v: ok=%v cell %v", p, ok, cell)
	}
	if kq, _, _ := NNCellKey(q, 1, 100); kq != kp {
		t.Fatal("two points of one cell at k=0 and k=1 must share an entry")
	}
	if k5, _, _ := NNCellKey(p, 5, 100); k5 == kp {
		t.Fatal("different k must not collide")
	}
	if kx, _, _ := NNCellKey(geom.Point{X: 200, Y: -2.25}, 1, 100); kx == kp {
		t.Fatal("a point on the next cell's edge belongs to the next cell")
	}
	if kc, _, _ := PointKey(p, 100); kc == kp {
		t.Fatal("the k-NN and point key spaces must not collide")
	}
	if _, _, ok := NNCellKey(geom.Point{X: math.NaN()}, 1, 100); ok {
		t.Fatal("NaN point should be uncacheable")
	}
	if _, _, ok := NNCellKey(p, 1<<17, 100); ok {
		t.Fatal("oversized k should be uncacheable")
	}
	if _, _, ok := NNCellKey(p, 1, 0); ok {
		t.Fatal("a zero cell should be uncacheable")
	}
}

type fakeSource struct {
	vers   []uint64
	bounds []geom.Rect
}

func (f *fakeSource) NumShards() int              { return len(f.vers) }
func (f *fakeSource) Version(i int) uint64        { return f.vers[i] }
func (f *fakeSource) ShardBounds(i int) geom.Rect { return f.bounds[i] }

func TestBuildView(t *testing.T) {
	src := &fakeSource{
		vers:   []uint64{7, 8, 9},
		bounds: []geom.Rect{rect(0, 0, 100, 100), rect(200, 0, 300, 100), geom.EmptyRect()},
	}
	var v View
	BuildView(src, rect(50, 50, 60, 60), &v)
	if v.Mask != 1 {
		t.Fatalf("mask = %b, want 1 (only shard 0 intersects)", v.Mask)
	}
	if len(v.Vers) != 1 || v.Vers[0] != 7 {
		t.Fatalf("vers = %v, want [7]", v.Vers)
	}
	BuildView(src, rect(50, 50, 250, 60), &v)
	if v.Mask != 3 || len(v.Vers) != 2 || v.Vers[1] != 8 {
		t.Fatalf("mask=%b vers=%v, want mask=11b vers=[7 8]", v.Mask, v.Vers)
	}
	// The empty shard never participates, even for an infinite region.
	all := geom.Rect{Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
		Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)}}
	BuildView(src, all, &v)
	if v.Mask != 3 {
		t.Fatalf("mask = %b, want 11b", v.Mask)
	}
}

func TestBuildViewManyShards(t *testing.T) {
	src := &fakeSource{}
	for i := 0; i < 70; i++ {
		src.vers = append(src.vers, uint64(i))
		src.bounds = append(src.bounds, rect(0, 0, 1, 1))
	}
	var v View
	BuildView(src, rect(100, 100, 101, 101), &v)
	if v.Mask != participateAll || len(v.Vers) != 70 {
		t.Fatalf("past 64 shards every shard must participate: mask=%x n=%d", v.Mask, len(v.Vers))
	}
}

func seg(x float64) geom.Segment {
	return geom.Segment{A: geom.Point{X: x, Y: 0}, B: geom.Point{X: x + 1, Y: 1}}
}

func TestCacheHitMissInvalidate(t *testing.T) {
	c := New(Config{})
	src := &fakeSource{vers: []uint64{0}, bounds: []geom.Rect{rect(0, 0, 1000, 1000)}}
	k, snap, _ := RangeKey(rect(10, 10, 90, 90), c.CellSize(), false)

	var pre, post View
	BuildView(src, snap, &pre)
	ids, segs, _, hit := c.Get(k, &pre, nil, nil, nil)
	if hit {
		t.Fatal("empty cache must miss")
	}
	BuildView(src, snap, &post)
	c.Put(k, &pre, &post, []uint32{1, 2, 3}, []geom.Segment{seg(1), seg(2), seg(3)}, nil)

	ids, segs, _, hit = c.Get(k, &pre, ids[:0], segs[:0], nil)
	if !hit || len(ids) != 3 || len(segs) != 3 || ids[1] != 2 {
		t.Fatalf("hit=%v ids=%v segs=%d", hit, ids, len(segs))
	}

	// A version bump kills the entry lazily at the next lookup.
	src.vers[0] = 1
	BuildView(src, snap, &pre)
	_, _, _, hit = c.Get(k, &pre, ids[:0], segs[:0], nil)
	if hit {
		t.Fatal("stale entry served after version bump")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Hits != 1 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheMaskChangeInvalidates(t *testing.T) {
	c := New(Config{})
	src := &fakeSource{
		vers:   []uint64{0, 0},
		bounds: []geom.Rect{rect(0, 0, 100, 100), geom.EmptyRect()},
	}
	k, snap, _ := RangeKey(rect(10, 10, 90, 90), c.CellSize(), false)
	var pre, post View
	BuildView(src, snap, &pre)
	BuildView(src, snap, &post)
	c.Put(k, &pre, &post, []uint32{1}, []geom.Segment{seg(1)}, nil)

	// Shard 1 grows into the window: the mask changes even though shard 0's
	// version is untouched, so the entry must die.
	src.vers[1] = 1
	src.bounds[1] = rect(50, 50, 60, 60)
	BuildView(src, snap, &pre)
	if _, _, _, hit := c.Get(k, &pre, nil, nil, nil); hit {
		t.Fatal("mask growth must invalidate")
	}
}

func TestCacheStoreRaceDropped(t *testing.T) {
	c := New(Config{})
	src := &fakeSource{vers: []uint64{0}, bounds: []geom.Rect{rect(0, 0, 100, 100)}}
	k, snap, _ := RangeKey(rect(10, 10, 90, 90), c.CellSize(), false)
	var pre, post View
	BuildView(src, snap, &pre)
	src.vers[0] = 1 // a write lands mid-execution
	BuildView(src, snap, &post)
	c.Put(k, &pre, &post, []uint32{1}, []geom.Segment{seg(1)}, nil)
	st := c.Stats()
	if st.Stores != 0 || st.StoreRaces != 1 || st.Entries != 0 {
		t.Fatalf("raced store must be dropped: %+v", st)
	}
}

func TestCacheOversizeBypass(t *testing.T) {
	c := New(Config{})
	src := &fakeSource{vers: []uint64{0}, bounds: []geom.Rect{rect(0, 0, 100, 100)}}
	k, snap, _ := RangeKey(rect(10, 10, 90, 90), c.CellSize(), false)
	var v View
	BuildView(src, snap, &v)
	c.Put(k, &v, &v, make([]uint32, MaxResultIDs+1), make([]geom.Segment, MaxResultIDs+1), nil)
	if st := c.Stats(); st.Entries != 0 || st.Bypasses != 1 {
		t.Fatalf("oversize result must bypass: %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One stripe, a budget that holds ~3 small entries.
	c := New(Config{stripes: 1, MaxBytes: 3 * payloadBytes(1, 1, 1, 0), CellSize: 100})
	src := &fakeSource{vers: []uint64{0}, bounds: []geom.Rect{rect(-1e9, -1e9, 1e9, 1e9)}}
	var v View

	put := func(i int) Key {
		w := rect(float64(i*1000), 0, float64(i*1000)+10, 10)
		k, snap, ok := RangeKey(w, c.CellSize(), false)
		if !ok {
			t.Fatalf("window %d uncacheable", i)
		}
		BuildView(src, snap, &v)
		c.Put(k, &v, &v, []uint32{uint32(i)}, []geom.Segment{seg(float64(i))}, nil)
		return k
	}
	k0 := put(0)
	k1 := put(1)
	k2 := put(2)
	// Touch k0 so k1 is the LRU victim when k3 arrives.
	if _, _, _, hit := c.Get(k0, &v, nil, nil, nil); !hit {
		t.Fatal("k0 should be resident")
	}
	put(3)
	if _, _, _, hit := c.Get(k1, &v, nil, nil, nil); hit {
		t.Fatal("k1 should have been evicted as LRU")
	}
	if _, _, _, hit := c.Get(k0, &v, nil, nil, nil); !hit {
		t.Fatal("k0 (recently used) should survive")
	}
	if _, _, _, hit := c.Get(k2, &v, nil, nil, nil); !hit {
		t.Fatal("k2 should survive")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheGetCopiesOut(t *testing.T) {
	c := New(Config{})
	src := &fakeSource{vers: []uint64{0}, bounds: []geom.Rect{rect(0, 0, 100, 100)}}
	k, snap, _ := RangeKey(rect(10, 10, 90, 90), c.CellSize(), false)
	var v View
	BuildView(src, snap, &v)
	c.Put(k, &v, &v, []uint32{1, 2}, []geom.Segment{seg(1), seg(2)}, []float64{0.5, 1.5})
	ids, segs, dists, hit := c.Get(k, &v, nil, nil, nil)
	if !hit {
		t.Fatal("miss")
	}
	ids[0] = 99
	segs[0] = seg(99)
	dists[0] = 99
	ids2, segs2, dists2, _ := c.Get(k, &v, nil, nil, nil)
	if ids2[0] != 1 || segs2[0] != seg(1) || dists2[0] != 0.5 {
		t.Fatal("Get must copy out, not alias cache memory")
	}
}

func TestHintOfAndUnwritten(t *testing.T) {
	src := &fakeSource{vers: []uint64{0, 0}, bounds: []geom.Rect{rect(0, 0, 1, 1), rect(0, 0, 1, 1)}}
	if !Unwritten(src) {
		t.Fatal("all-zero versions must report unwritten")
	}
	h0 := HintOf(src)
	if h0 == 0 {
		t.Fatal("hint must never be zero")
	}
	if HintOf(src) != h0 {
		t.Fatal("hint must be deterministic")
	}
	src.vers[1] = 1
	if Unwritten(src) {
		t.Fatal("a write must clear unwritten")
	}
	if HintOf(src) == h0 {
		t.Fatal("a version bump must change the hint")
	}
	if HintOf(Static{}) == 0 {
		t.Fatal("static hint must be non-zero")
	}
}

func TestStaticSource(t *testing.T) {
	s := Static{Rect: rect(0, 0, 10, 10)}
	var v View
	BuildView(s, rect(5, 5, 6, 6), &v)
	if v.Mask != 1 || len(v.Vers) != 1 || v.Vers[0] != 0 {
		t.Fatalf("static view = %+v", v)
	}
	BuildView(s, rect(100, 100, 101, 101), &v)
	if v.Mask != 0 {
		t.Fatalf("out-of-extent region should not participate: %+v", v)
	}
}
