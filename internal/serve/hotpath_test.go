package serve

import (
	"bytes"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// TestExecuteQueryZeroAlloc pins the warm single-query serve path — decode,
// index walk, response build — at zero heap allocations per query for every
// kind and mode the hot path serves.
func TestExecuteQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, srv, _ := testWorld(t, nil)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 400, Y: center.Y - 400},
		Max: geom.Point{X: center.X + 400, Y: center.Y + 400},
	}
	queries := []*proto.QueryMsg{
		{ID: 1, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
		{ID: 2, Kind: proto.KindRange, Mode: proto.ModeData, Window: w},
		{ID: 3, Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w},
		{ID: 4, Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: center},
		{ID: 5, Kind: proto.KindNN, Mode: proto.ModeIDs, Point: center},
		{ID: 6, Kind: proto.KindNN, Mode: proto.ModeIDs, Point: center, K: 8},
	}
	sc := srv.getScratch()
	if n := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			if _, ok := srv.executeQuery(q, sc, time.Time{}).(*proto.ErrorMsg); ok {
				t.Fatal("query failed")
			}
		}
	}); n != 0 {
		t.Fatalf("warm executeQuery: %.2f allocs/op over %d queries, want 0", n, len(queries))
	}
}

// TestExecuteBatchZeroAlloc does the same for a warm fixed-shape batch.
func TestExecuteBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, srv, _ := testWorld(t, nil)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 400, Y: center.Y - 400},
		Max: geom.Point{X: center.X + 400, Y: center.Y + 400},
	}
	batch := &proto.BatchQueryMsg{ID: 9}
	for i := 0; i < 16; i++ {
		batch.Queries = append(batch.Queries, proto.QueryMsg{
			ID: uint32(i), Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w})
	}
	sc := srv.getScratch()
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := srv.executeBatch(batch, sc, time.Time{}).(*proto.ErrorMsg); ok {
			t.Fatal("batch failed")
		}
	}); n != 0 {
		t.Fatalf("warm executeBatch: %.2f allocs/op, want 0", n)
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
	frame, err := proto.EncodeMessage(&proto.QueryMsg{
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
