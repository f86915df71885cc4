package serve

import (
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// dataReplyWorld returns cachedWorld's uncached server and a data-mode window
// query that returns on the order of a hundred records — the moving
// workload's median read. With overlay, 64 inserted objects spread over the
// map sit unfolded in every shard (the compactor is off), a few of them
// inside the window, so the read runs the overlay merge and resolves written
// and never-written ids alike.
func dataReplyWorld(t testing.TB, overlay bool) (*Server, *proto.QueryMsg) {
	t.Helper()
	ds, pool, _, srv := cachedWorld(t)
	w := densestWindow(ds, 1600)
	if overlay {
		for i := 0; i < 64; i++ {
			at := ds.Seg(uint32(i * (ds.Len() / 64)))
			if i < 4 {
				c := w.Center()
				d := float64(40 * (i + 1))
				at = geom.Segment{A: geom.Point{X: c.X - d, Y: c.Y - d}, B: geom.Point{X: c.X + d, Y: c.Y - d}}
			}
			if _, _, owned, err := pool.ApplyMove(uint32(ds.Len()+i), at); err != nil || !owned {
				t.Fatalf("place %d: owned=%v err=%v", i, owned, err)
			}
		}
		for i := 0; i < pool.NumShards(); i++ {
			if pool.Pending(i) == 0 {
				t.Fatalf("shard %d has no overlay", i)
			}
		}
	}
	return srv, &proto.QueryMsg{ID: 1, Kind: proto.KindRange, Mode: proto.ModeData, Window: w}
}

// densestWindow returns the side×side window, centred on a segment of ds,
// that holds the most of 64 evenly spaced sample segments' neighbours — a
// window inside a cluster, so the reply is not a handful of records.
func densestWindow(ds *dataset.Dataset, side float64) geom.Rect {
	var best geom.Rect
	bestN := -1
	for i := 0; i < 64; i++ {
		c := ds.Seg(uint32(i * (ds.Len() / 64))).Midpoint()
		w := geom.Rect{
			Min: geom.Point{X: c.X - side/2, Y: c.Y - side/2},
			Max: geom.Point{X: c.X + side/2, Y: c.Y + side/2},
		}
		n := 0
		for _, s := range ds.Segments {
			if s.IntersectsRect(w) {
				n++
			}
		}
		if n > bestN {
			best, bestN = w, n
		}
	}
	return best
}

// TestDataRangeOverlayZeroAlloc: a warm data-mode range over an updatable
// pool with a non-empty overlay — the overlay merge, then one geometry
// look-up per record — allocates nothing.
func TestDataRangeOverlayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	srv, q := dataReplyWorld(t, true)
	sc := srv.getScratch()
	var it proto.BatchItem
	run := func() {
		resetItem(&it)
		if srv.read(q, sc, &it, time.Time{}); it.Err != 0 {
			t.Fatal(it.Text)
		}
	}
	run()
	recs, inserted := it.Recs, 0
	ds, _ := testDataset(t)
	for _, r := range recs {
		if int(r.ID) >= ds.Len() {
			inserted++
		}
	}
	if len(recs) < 50 || inserted == 0 {
		t.Fatalf("reply holds %d records, %d of them inserted objects: not the overlay read this test is about", len(recs), inserted)
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("warm data-mode range over an overlay: %.2f allocs/op, want 0", n)
	}
}

// BenchmarkDataRangeReply measures materialising one data-mode range reply
// on an updatable pool, overlays empty and pending, from one reader and from
// GOMAXPROCS readers at once: ns/record is the per-record cost of the reply
// path (walk + geometry look-up), and the parallel rows show what the
// readers share.
func BenchmarkDataRangeReply(b *testing.B) {
	for _, overlay := range []bool{false, true} {
		name := "clean"
		if overlay {
			name = "overlay"
		}
		srv, q := dataReplyWorld(b, overlay)
		answer := func(sc *reqScratch, it *proto.BatchItem) int {
			resetItem(it)
			if srv.read(q, sc, it, time.Time{}); it.Err != 0 {
				b.Error(it.Text) // not Fatal: the parallel rows call this off the benchmark's goroutine
			}
			return len(it.Recs)
		}
		perReply := answer(srv.getScratch(), new(proto.BatchItem))
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perReply), "ns/record")
			b.ReportMetric(float64(perReply), "records/reply")
		}
		b.Run(name+"/1", func(b *testing.B) {
			sc, it := srv.getScratch(), new(proto.BatchItem)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answer(sc, it)
			}
			report(b)
		})
		b.Run(name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				sc, it := srv.getScratch(), new(proto.BatchItem)
				for pb.Next() {
					answer(sc, it)
				}
			})
			report(b)
		})
	}
}
