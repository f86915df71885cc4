package mutable

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/shard"
)

// testPool builds a monolithic pool over an n-segment random dataset, which
// it returns beside the pool: the pool keeps only the items.
func testPool(t *testing.T, n, shards int) (*Pool, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, n)
	p, err := NewFromDataset(ds, shards, Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, ds
}

// TestNewFromDatasetDefaultShards: a shard count of 0 is the pool's own
// default, as it is for shard.New.
func TestNewFromDatasetDefaultShards(t *testing.T) {
	if p, _ := testPool(t, 120, 0); p.NumShards() != DefaultShards {
		t.Errorf("NewFromDataset(ds, 0, …).NumShards() = %d, want DefaultShards %d", p.NumShards(), DefaultShards)
	}
}

func TestInsertDeleteMoveBasics(t *testing.T) {
	p, ds := testPool(t, 120, 3)
	base := ds.Len()
	id := uint32(base) // first never-seen id
	seg := geom.Segment{A: geom.Point{X: 100, Y: 100}, B: geom.Point{X: 140, Y: 120}}

	if _, existed, owned, err := p.ApplyMove(id, seg); err != nil || existed || !owned {
		t.Fatalf("insert new: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if p.Len() != base+1 {
		t.Fatalf("Len=%d, want %d", p.Len(), base+1)
	}
	if got := p.SegOf(id); got != seg {
		t.Fatalf("SegOf=%v, want %v", got, seg)
	}
	w := seg.MBR()
	if !containsID(p.RangeAppend(nil, w), id) {
		t.Fatalf("range over %v missed inserted id %d", w, id)
	}

	// Move across the map: the id must vanish from the old window and
	// appear in the new one, whichever shard now owns it.
	seg2 := geom.Segment{A: geom.Point{X: 1800, Y: 1800}, B: geom.Point{X: 1850, Y: 1820}}
	if _, existed, owned, err := p.ApplyMove(id, seg2); err != nil || !existed || !owned {
		t.Fatalf("move: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if containsID(p.RangeAppend(nil, w), id) {
		t.Fatalf("id %d still visible at old position after move", id)
	}
	if !containsID(p.RangeAppend(nil, seg2.MBR()), id) {
		t.Fatalf("id %d not visible at new position", id)
	}
	if p.Len() != base+1 {
		t.Fatalf("Len changed across move: %d", p.Len())
	}

	if _, existed, _, err := p.ApplyDelete(id); err != nil || !existed {
		t.Fatalf("delete live: existed=%v err=%v", existed, err)
	}
	if _, existed, _, err := p.ApplyDelete(id); err != nil || existed {
		t.Fatalf("delete is not idempotent: existed=%v err=%v", existed, err)
	}
	if p.Len() != base {
		t.Fatalf("Len=%d after delete, want %d", p.Len(), base)
	}
	if containsID(filterRange(p, nil, seg2.MBR()), id) {
		t.Fatalf("deleted id %d still in candidates", id)
	}
}

func TestCompactionFoldsOverlayAndBumpsEpoch(t *testing.T) {
	p, ds := testPool(t, 200, 2)
	rng := rand.New(rand.NewSource(11))
	base := ds.Len()
	for i := 0; i < 60; i++ {
		id := uint32(rng.Intn(base + 20))
		switch rng.Intn(3) {
		case 0:
			p.ApplyMove(id, randomSeg(rng, ds.Extent))
		case 1:
			p.ApplyDelete(id)
		case 2:
			p.ApplyMove(id, randomSeg(rng, ds.Extent))
		}
	}
	w := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 2200, Y: 2200}}
	before := p.RangeAppend(nil, w)
	nnBefore := p.NearestWith(geom.Point{X: 500, Y: 500}, nil)

	epochs := make([]uint64, p.NumShards())
	pending := false
	for i := range epochs {
		epochs[i] = p.Epoch(i)
		pending = pending || p.Pending(i) > 0
	}
	if !pending {
		t.Fatal("test applied 60 updates but no shard has a pending overlay")
	}
	p.ForceCompact()
	bumped := false
	for i := range epochs {
		if p.Pending(i) != 0 {
			t.Fatalf("shard %d still pending %d after ForceCompact", i, p.Pending(i))
		}
		if p.Epoch(i) > epochs[i] {
			bumped = true
		}
	}
	if !bumped {
		t.Fatal("no shard epoch advanced across ForceCompact")
	}
	if !sameIDSet(before, p.RangeAppend(nil, w)) {
		t.Fatal("full-extent range answer changed across compaction")
	}
	nnAfter := p.NearestWith(geom.Point{X: 500, Y: 500}, nil)
	if nnBefore.OK != nnAfter.OK || nnBefore.Dist != nnAfter.Dist {
		t.Fatalf("NN answer changed across compaction: %+v -> %+v", nnBefore, nnAfter)
	}
}

// TestFoldKeepsVersionAndHint: a fold changes no answer, so a ForceCompact
// with no write in between swaps epochs but moves no shard's version, and so
// not the epoch hint replies carry either; the next write moves both.
func TestFoldKeepsVersionAndHint(t *testing.T) {
	p, ds := testPool(t, 200, 2)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		p.ApplyMove(uint32(rng.Intn(ds.Len()+20)), randomSeg(rng, ds.Extent))
	}
	vers := make([]uint64, p.NumShards())
	epochs := uint64(0)
	for i := range vers {
		vers[i], epochs = p.Version(i), epochs+p.Epoch(i)
	}
	hint := qcache.HintOf(p)
	p.ForceCompact()
	for i := range vers {
		epochs -= p.Epoch(i)
		if p.Version(i) != vers[i] {
			t.Errorf("shard %d: the fold moved the version %d → %d", i, vers[i], p.Version(i))
		}
	}
	if epochs == 0 {
		t.Fatal("ForceCompact swapped no epoch")
	}
	if h := qcache.HintOf(p); h != hint {
		t.Errorf("the fold moved the epoch hint %#x → %#x", hint, h)
	}
	p.ApplyMove(0, randomSeg(rng, ds.Extent))
	if qcache.HintOf(p) == hint {
		t.Error("a write after the fold left the epoch hint unchanged")
	}
}

// TestPartitionedOwnership builds a pool holding only 2 of 4 cluster ranges
// and checks the not-owned write contract: a write keyed into a foreign
// range acks owned=false and leaves no local copy, and a move of a locally
// held object into foreign territory drops the local copy.
func TestPartitionedOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randomDataset(rng, 160)
	h, err := shard.Cut(ds.Items(), 4).Hold(1, 2) // ranges 1 and 0
	if err != nil {
		t.Fatal(err)
	}
	cuts, bounds := h.Cuts, h.Bounds
	p, err := New(Config{Ranges: h.Ranges, Cuts: cuts, Bounds: bounds, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	held := h.Len()
	if p.Len() != held {
		t.Fatalf("Len=%d, want %d held items", p.Len(), held)
	}

	q := shard.QuantizerFor(bounds, 0)
	foreignSeg := func() geom.Segment {
		for i := 0; i < 10000; i++ {
			seg := randomSeg(rng, bounds)
			if g := shard.RangeForKey(cuts, shard.WriteKey(q, seg.MBR())); g >= 2 {
				return seg
			}
		}
		t.Fatal("could not find a foreign-keyed segment")
		return geom.Segment{}
	}
	localSeg := func() geom.Segment {
		for i := 0; i < 10000; i++ {
			seg := randomSeg(rng, bounds)
			if g := shard.RangeForKey(cuts, shard.WriteKey(q, seg.MBR())); g < 2 {
				return seg
			}
		}
		t.Fatal("could not find a locally-keyed segment")
		return geom.Segment{}
	}

	// Foreign insert of an unknown id: refused ownership, nothing stored.
	newID := uint32(ds.Len())
	if _, existed, owned, err := p.ApplyMove(newID, foreignSeg()); err != nil || existed || owned {
		t.Fatalf("foreign insert: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if p.Len() != held {
		t.Fatalf("foreign insert changed Len to %d", p.Len())
	}

	// Local insert, then a move into foreign territory must evict it.
	ls := localSeg()
	if _, _, owned, err := p.ApplyMove(newID, ls); err != nil || !owned {
		t.Fatalf("local insert: owned=%v err=%v", owned, err)
	}
	if p.Len() != held+1 {
		t.Fatalf("Len=%d after local insert, want %d", p.Len(), held+1)
	}
	if _, existed, owned, err := p.ApplyMove(newID, foreignSeg()); err != nil || !existed || owned {
		t.Fatalf("move out: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if p.Len() != held {
		t.Fatalf("Len=%d after move-out, want %d", p.Len(), held)
	}
	if containsID(p.RangeAppend(nil, ls.MBR()), newID) {
		t.Fatal("moved-out id still visible locally")
	}
}

func TestSegOfFallsBackToDataset(t *testing.T) {
	p, ds := testPool(t, 80, 2)
	for id := uint32(0); id < 10; id++ {
		if got, want := p.SegOf(id), ds.Seg(id); got != want {
			t.Fatalf("SegOf(%d)=%v, want dataset seg %v", id, got, want)
		}
	}
	// Unknown high id resolves to the zero segment, not a panic.
	if got := p.SegOf(uint32(ds.Len() + 999)); got != (geom.Segment{}) {
		t.Fatalf("SegOf(unknown)=%v, want zero segment", got)
	}
}

func containsID(ids []uint32, id uint32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// filterRange and filterPoint are the MBR-filter answers of a window and a
// point: the candidates a router's leg and a cache fill ask SearchAppend for.
func filterRange(p *Pool, dst []uint32, w geom.Rect) []uint32 {
	return p.SearchAppend(dst, nil, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w})
}

func filterPoint(p *Pool, dst []uint32, pt geom.Point) []uint32 {
	return p.SearchAppend(dst, nil, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeFilter, Point: pt})
}

// TestNewBuildsAlikeAtAnyWidth: the bases NewFromDataset builds side by
// side, each over a sort that splits across goroutines, are the bases one
// goroutine builds: on PA at GOMAXPROCS 1 and 4, the same shard cuts, every
// shard the same pack order and bounds, and every id the same slot.
func TestNewBuildsAlikeAtAnyWidth(t *testing.T) {
	ds := dataset.PA()
	build := func(procs int) *Pool {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, err := NewFromDataset(ds, 0, Config{CompactInterval: -1, CompactMaxAge: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	one, four := build(1), build(4)
	if !slices.Equal(one.shardCuts, four.shardCuts) || !slices.Equal(one.cuts, four.cuts) {
		t.Fatalf("cuts %v / %v at GOMAXPROCS 1, %v / %v at 4", one.cuts, one.shardCuts, four.cuts, four.shardCuts)
	}
	for i, s := range one.shards {
		a, b := s.base.Load(), four.shards[i].base.Load()
		if !slices.Equal(a.tree.PackOrder(), b.tree.PackOrder()) || a.bounds != b.bounds {
			t.Errorf("shard %d packs differently at GOMAXPROCS 1 and 4", i)
		}
	}
	for id := range uint32(ds.Len()) {
		if one.ids.word(id) != four.ids.word(id) {
			t.Fatalf("id %d: slot word %#x at GOMAXPROCS 1, %#x at 4", id, one.ids.word(id), four.ids.word(id))
		}
	}
}

// BenchmarkFold times one compaction of a freshly written PA pool: each
// iteration moves 64 dataset ids 100 m off their segments, spread over the
// map, and then ForceCompact folds every shard they landed in (PA's four
// shards, as mqserve builds them). The fold merges the overlay into the old
// leaves in the pool's frame, packs the merge and restamps the moved slots.
func BenchmarkFold(b *testing.B) {
	ds := dataset.PA()
	p, err := NewFromDataset(ds, 0, Config{CompactInterval: -1, CompactMaxAge: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const moves = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < moves; j++ {
			id := uint32((j*(ds.Len()/moves) + i) % ds.Len())
			s := ds.Seg(id)
			s.A.X += 100
			s.B.X += 100
			if _, _, _, err := p.ApplyMove(id, s); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		p.ForceCompact()
	}
}
