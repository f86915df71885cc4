package serve

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/shard"
)

// hotPathServers builds the two local pool shapes the zero-allocation tables
// run on, over one dataset: the frozen engine (one shard over the master
// tree, the unsharded server) and a 4-shard mutable pool with empty overlays
// (the moving workload's shape). Neither server listens.
func hotPathServers(t *testing.T) (geom.Rect, map[string]*Server) {
	t.Helper()
	ds, tree := testDataset(t)
	frozen, err := shard.Over(tree)
	if err != nil {
		t.Fatal(err)
	}
	srvs := map[string]*Server{}
	for name, pool := range map[string]Executor{"frozen": frozen, "mutable": monolithicMutable(t, ds, 4)} {
		if srvs[name], err = New(Config{Pool: pool, Master: tree}); err != nil {
			t.Fatal(err)
		}
	}
	return ds.Extent, srvs
}

// hotWindow is the 800×800 window the hot-path tables query, centred on c.
func hotWindow(c geom.Point) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: c.X - 400, Y: c.Y - 400},
		Max: geom.Point{X: c.X + 400, Y: c.Y + 400},
	}
}

// hotQueries is every single-query shape the hot path serves: each kind in
// each mode, and k-NN at K 0, 1 and 8 in ids and data mode (every k-NN the
// benchmark sends is data mode).
func hotQueries(pt geom.Point, w geom.Rect) []*proto.QueryMsg {
	qs := []*proto.QueryMsg{
		{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
		{Kind: proto.KindRange, Mode: proto.ModeData, Window: w},
		{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w},
		{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt},
		{Kind: proto.KindPoint, Mode: proto.ModeData, Point: pt},
	}
	for _, k := range []uint16{0, 1, 8} {
		qs = append(qs,
			&proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: k},
			&proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: pt, K: k})
	}
	for i, q := range qs {
		q.ID = uint32(i + 1)
	}
	return qs
}

// TestExecuteQueryZeroAlloc pins the warm single-query serve path — decode,
// index walk, response build — at zero heap allocations per query for every
// kind and mode the hot path serves, on both local pool shapes.
func TestExecuteQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ext, srvs := hotPathServers(t)
	center := ext.Center()
	queries := hotQueries(center, hotWindow(center))
	for name, srv := range srvs {
		t.Run(name, func(t *testing.T) {
			sc := srv.getScratch()
			if n := testing.AllocsPerRun(200, func() {
				for _, q := range queries {
					if em, ok := srv.executeQuery(q, sc, time.Time{}).(*proto.ErrorMsg); ok {
						t.Fatalf("query %+v failed: %s", q, em.Text)
					}
				}
			}); n != 0 {
				t.Fatalf("warm executeQuery: %.2f allocs/op over %d queries, want 0", n, len(queries))
			}
		})
	}
}

// TestExecuteBatchZeroAlloc does the same for warm fixed-shape batches: 16
// range queries in ids mode, and a mixed 16-query batch — every kind in ids
// and data mode, k-NN at K 0, 1 and 8, and two router k-NN legs
// (ModeNeighbors items), one unbounded and one bounded at its own k-th
// distance.
func TestExecuteBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ext, srvs := hotPathServers(t)
	center := ext.Center()
	w := hotWindow(center)
	ranges := &proto.BatchQueryMsg{ID: 9}
	for i := 0; i < 16; i++ {
		ranges.Queries = append(ranges.Queries, proto.QueryMsg{
			ID: uint32(i), Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w})
	}
	for name, srv := range srvs {
		t.Run(name, func(t *testing.T) {
			nbs, err := srv.eng.KNearestAppendUntil(nil, center, 8, nil, time.Time{})
			if err != nil || len(nbs) != 8 {
				t.Fatalf("engine k-NN: %v, %v", nbs, err)
			}
			mixed := &proto.BatchQueryMsg{ID: 10}
			for _, q := range hotQueries(center, w) {
				if q.Mode != proto.ModeFilter {
					mixed.Queries = append(mixed.Queries, *q)
				}
			}
			off := geom.Point{X: center.X + 900, Y: center.Y - 700}
			mixed.Queries = append(mixed.Queries,
				proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: hotWindow(off)},
				proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: hotWindow(off)},
				proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeFilter, Point: off},
				proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: off, K: 8},
				proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeCandidates, Point: center, K: 8},
				proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeCandidates, Point: center, K: 8, Eps: nbs[7].Dist})
			if len(mixed.Queries) != 16 {
				t.Fatalf("mixed batch holds %d queries, want 16", len(mixed.Queries))
			}
			for _, batch := range []*proto.BatchQueryMsg{ranges, mixed} {
				sc := srv.getScratch()
				if n := testing.AllocsPerRun(100, func() {
					reply, ok := srv.executeBatch(batch, sc, time.Time{}).(*proto.BatchReplyMsg)
					if !ok {
						t.Fatal("batch failed")
					}
					for i, it := range reply.Items {
						if it.Err != 0 {
							t.Fatalf("batch %d item %d failed: %s", batch.ID, i, it.Text)
						}
					}
				}); n != 0 {
					t.Fatalf("warm executeBatch %d: %.2f allocs/op, want 0", batch.ID, n)
				}
			}
		})
	}
}

// TestServeHotPathLoopZeroAlloc runs the full in-process request loop —
// frame decode, execute with scratch, frame encode, message release — and
// requires zero allocations once warm. This is the serve-side half of the
// wire pooling contract (the other half lives in proto's alloc tests).
func TestServeHotPathLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, srv, _ := testWorld(t, nil)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 400, Y: center.Y - 400},
		Max: geom.Point{X: center.X + 400, Y: center.Y + 400},
	}
	frame, err := proto.AppendFrame(nil, &proto.QueryMsg{
		ID: 7, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	sc := srv.getScratch()
	var out []byte
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(frame)
		msg, _, rerr := proto.ReadMessage(rd)
		if rerr != nil {
			t.Fatal(rerr)
		}
		resp := srv.execute(msg.(proto.Request), sc, time.Time{})
		out, rerr = proto.AppendFrame(out[:0], resp)
		if rerr != nil {
			t.Fatal(rerr)
		}
		proto.ReleaseMessage(msg)
	}); n != 0 {
		t.Fatalf("warm serve loop: %.2f allocs/op, want 0", n)
	}
}

// TestConnReadZeroAlloc: the server's reader decodes a frame straight from
// conn's buffered reader — the header a byte at a time, then the payload —
// with no allocation once warm, for a frame whose length takes one byte and
// one whose length takes two.
func TestConnReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	_, _, srv, _ := testWorld(t, nil)
	batch := &proto.BatchQueryMsg{ID: 8}
	for i := 0; i < 8; i++ {
		batch.Queries = append(batch.Queries, *pointQuery(uint32(i), 0))
	}
	var frames []byte
	for _, m := range []proto.Message{pointQuery(7, 0), batch} {
		var err error
		if frames, err = proto.AppendFrame(frames, m); err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(nil)
	c := &conn{srv: srv, br: bufio.NewReaderSize(rd, connReadBuf)}
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(frames)
		c.br.Reset(rd)
		for range 2 {
			msg, _, err := proto.ReadMessage(c.br)
			if err != nil {
				t.Fatal(err)
			}
			proto.ReleaseMessage(msg)
		}
	}); n != 0 {
		t.Fatalf("warm ReadMessage through conn: %.2f allocs/op, want 0", n)
	}
}
