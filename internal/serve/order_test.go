package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// TestSortIDs holds the sorter to a comparison sort with repeats dropped, on
// lists that take each path: already ascending, short, the bitmap at several
// densities, repeats, and ids past the bitmap's bound, after which the bitmap
// must be clean for the next list. Built into records (appendRecords), the
// same lists come out in the same id order, each id beside its own segment
// — a repeated id's first sighting — after whatever dst held.
func TestSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s idSorter
	check := func(name string, ids []uint32) {
		t.Helper()
		want := ascending(ids)
		if got := s.sortIDs(slices.Clone(ids)); !slices.Equal(got, want) {
			t.Fatalf("%s (%d ids): got %v, want %v", name, len(ids), got, want)
		}
		segs := make([]geom.Segment, len(ids))
		first := make(map[uint32]geom.Segment)
		for i, id := range ids {
			segs[i] = geom.Segment{A: geom.Point{X: float64(i)}}
			if _, seen := first[id]; !seen {
				first[id] = segs[i]
			}
		}
		prefix := proto.Record{ID: 1 << 31}
		recs := s.appendRecords([]proto.Record{prefix}, slices.Clone(ids), segs)
		if len(recs) != len(want)+1 || recs[0] != prefix {
			t.Fatalf("%s (%d records): %d records after the prefix %v, want %d", name, len(ids), len(recs)-1, recs[0], len(want))
		}
		for i, rec := range recs[1:] {
			if rec.ID != want[i] || rec.Seg != first[rec.ID] {
				t.Fatalf("%s (%d records): record %d is %+v, want id %d at its first sighting %v", name, len(ids), i, rec, want[i], first[want[i]])
			}
		}
	}
	for _, n := range []int{0, 1, 2, insertionMax, insertionMax + 1, 100, 813, 5000} {
		for _, span := range []uint32{uint32(n) + 1, 4096, 139_006, bitmapIDs - 1} {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32(rng.Int63n(int64(span)))
			}
			check("random", ids)
			slices.Sort(ids)
			check("sorted with repeats", ids)
			check("ascending", slices.Compact(ids))
			slices.Reverse(ids)
			check("descending", ids)
		}
	}
	check("past the bitmap", []uint32{5, bitmapIDs, 70, 3, 1<<22 + 9, 64: 1, 99: math.MaxUint32})
	check("bitmap clean afterwards", append(seqIDs(40, 60), 7, 7, 5))
}

// seqIDs returns n consecutive ids from first, highest first.
func seqIDs(first uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = first + uint32(n-1-i)
	}
	return out
}

// TestSortIDsRunsProperty holds the run-at-a-time read-out to slices.Sort +
// slices.Compact on lists built from runs of consecutive ids: runs that end
// at a word's last bit, start at its first, cross one or more word
// boundaries or fill whole words, runs repeated and overlapping, shuffled
// into any order, and now and then an id past the bitmap, which sends the
// list to the comparison sort and must leave the bitmap clean for the next.
func TestSortIDsRunsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s idSorter
	for trial := 0; trial < 3000; trial++ {
		var ids []uint32
		for r := rng.Intn(12); r >= 0; r-- {
			// Starts near word edges half the time, lengths up to three words.
			start := uint32(rng.Intn(1 << 14))
			if rng.Intn(2) == 0 {
				start = start&^63 + uint32(rng.Intn(3)) - 1 + 64
			}
			n := 1 + rng.Intn(4)
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(192)
			}
			for i := 0; i < n; i++ {
				ids = append(ids, start+uint32(i))
			}
			if rng.Intn(4) == 0 && n > 1 { // a repeat overlapping the run
				off := rng.Intn(n)
				ids = append(ids, ids[len(ids)-n+off:]...)
			}
		}
		if rng.Intn(50) == 0 {
			ids = append(ids, bitmapIDs+uint32(rng.Intn(1000)))
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		want := ascending(ids)
		if got := s.sortIDs(slices.Clone(ids)); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d ids): got %v, want %v", trial, len(ids), got, want)
		}
	}
	for i, w := range s.words {
		if w != 0 {
			t.Fatalf("bitmap word %d left at %#x", i, w)
		}
	}
}

// BenchmarkSortIDs sorts the range answers of the paper's §5.4 windows on PA
// as the serving kernel reports them, in tree order: the sort every range
// answer takes before it is coded.
func BenchmarkSortIDs(b *testing.B) {
	ds := dataset.PA()
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		b.Fatal(err)
	}
	var answers [][]uint32
	total := 0
	for _, w := range dataset.RangeQueries(ds, 200, 1) {
		ids := tree.AppendRange(nil, nil, w, true, nil)
		answers, total = append(answers, ids), total+len(ids)
	}
	var s idSorter
	work := make([]uint32, 0, total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := answers[i%len(answers)]
		s.sortIDs(append(work[:0], src...))
	}
	b.ReportMetric(float64(total)/float64(len(answers)), "ids/answer")
}

// TestSortIDsZeroAlloc: a warm sort allocates nothing, of ids or records.
func TestSortIDsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewSource(4))
	src := make([]uint32, 2000)
	srcSegs := make([]geom.Segment, len(src))
	for i := range src {
		src[i] = uint32(rng.Intn(139_006))
		srcSegs[i].A.X = float64(i)
	}
	var s idSorter
	work := make([]uint32, len(src))
	var recs []proto.Record
	if n := testing.AllocsPerRun(100, func() {
		work = s.sortIDs(append(work[:0], src...))
		recs = s.appendRecords(recs[:0], append(work[:0], src...), srcSegs)
	}); n != 0 {
		t.Fatalf("warm sort: %.1f allocs, want 0", n)
	}
}

// TestAnswerOrderContract checks the order contract on the wire, from every
// kind of server a client can reach: a point, range or filter answer is
// strictly ascending by id (so each id once), in id and data mode, single and
// batched; a k-NN answer is nearest first. The servers: the frozen pool; a
// mutable pool, clean and with pending moves in its overlays; a result cache
// on a miss and on a hit; and a router over three R=2 backends, on windows
// one backend answers alone and on windows that meet all three ranges, which
// no backend holds together, so two legs' answers are joined.
func TestAnswerOrderContract(t *testing.T) {
	ds, tree := testDataset(t)
	ext := ds.Extent
	rng := rand.New(rand.NewSource(17))
	randPoint := func() geom.Point {
		return geom.Point{X: ext.Min.X + rng.Float64()*ext.Width(), Y: ext.Min.Y + rng.Float64()*ext.Height()}
	}
	around := func(c geom.Point, half float64) geom.Rect {
		return geom.Rect{Min: geom.Point{X: c.X - half, Y: c.Y - half}, Max: geom.Point{X: c.X + half, Y: c.Y + half}}
	}
	ascendingIDs := func(ids []uint32) bool {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		return true
	}
	ascendingRecs := func(recs []proto.Record) bool {
		ids := make([]uint32, len(recs))
		for i := range recs {
			ids[i] = recs[i].ID
		}
		return ascendingIDs(ids)
	}
	// check asks each read of a fixed set of windows and points twice (the
	// second time a cache hit where there is a cache) and holds every answer
	// to the contract. It returns how many answers held two or more ids, so a
	// caller can tell the check was not vacuous.
	check := func(t *testing.T, c *client.Client, wins []geom.Rect, pts []geom.Point) (nonTrivial int) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			for _, w := range wins {
				ids, err := c.RangeIDs(w)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := c.Range(w)
				if err != nil {
					t.Fatal(err)
				}
				cands, err := c.FilterRange(w)
				if err != nil {
					t.Fatal(err)
				}
				if !ascendingIDs(ids) || !ascendingRecs(recs) || !ascendingIDs(cands) {
					t.Fatalf("pass %d window %v: an answer is not ascending: ids %v", pass, w, ids)
				}
				if len(ids) > 1 {
					nonTrivial++
				}
			}
			var batch []proto.QueryMsg
			for _, pt := range pts {
				ids, err := c.PointIDs(pt, 40)
				if err != nil {
					t.Fatal(err)
				}
				if !ascendingIDs(ids) {
					t.Fatalf("point %v: %v is not ascending", pt, ids)
				}
				knn, err := c.KNearest(pt, 12)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(knn); i++ {
					if knn[i].Seg.DistToPoint(pt) < knn[i-1].Seg.DistToPoint(pt) {
						t.Fatalf("k-NN at %v is not nearest first at %d", pt, i)
					}
				}
				batch = append(batch,
					proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt, Eps: 40},
					proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: around(pt, 900)},
					proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: around(pt, 600)})
			}
			res, err := c.QueryBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Err != nil || !ascendingIDs(r.IDs) || !ascendingRecs(r.Records) {
					t.Fatalf("batch item %d (%v): not an ascending answer (err %v)", i, batch[i].Mode, r.Err)
				}
			}
		}
		return nonTrivial
	}
	var wins []geom.Rect
	var pts []geom.Point
	for i := 0; i < 12; i++ {
		wins = append(wins, around(randPoint(), 300+rng.Float64()*2500))
		pts = append(pts, randPoint())
	}
	wins = append(wins, ext) // every range of the map

	t.Run("frozen", func(t *testing.T) {
		pool, err := shard.Over(tree)
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServer(t, Config{Pool: pool, Master: tree})
		if n := check(t, newClient(t, addr, 1), wins, pts); n == 0 {
			t.Fatal("no answer held two ids")
		}
	})
	t.Run("mutable", func(t *testing.T) {
		pool := monolithicMutable(t, ds, 4)
		_, addr := startServer(t, Config{Pool: pool})
		c := newClient(t, addr, 1)
		check(t, c, wins, pts)
		// Pending moves: the overlays hold them until a compaction, which
		// this pool never runs, so reads merge base and overlay.
		for i := 0; i < 200; i++ {
			id := uint32(rng.Intn(ds.Len()))
			c0 := randPoint()
			if _, err := c.Move(id, geom.Segment{A: c0, B: geom.Point{X: c0.X + 30, Y: c0.Y + 10}}); err != nil {
				t.Fatal(err)
			}
		}
		check(t, c, wins, pts)
	})
	t.Run("qcache", func(t *testing.T) {
		pool, err := shard.Over(tree)
		if err != nil {
			t.Fatal(err)
		}
		srv, addr := startServer(t, Config{Pool: pool, Master: tree, Cache: qcache.New(qcache.Config{CellSize: 256})})
		check(t, newClient(t, addr, 1), wins, pts)
		if st := srv.CacheStats(); st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("cache stats %+v: want both hits and misses", st)
		}
	})
	t.Run("router", func(t *testing.T) {
		r := startRouterBench(t, ds, 3, 2)
		_, addr := startServer(t, Config{Pool: r})
		if n := check(t, newClient(t, addr, 1), wins, pts); n == 0 {
			t.Fatal("no answer held two ids")
		}
	})
}
