package serve

import (
	"bytes"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// BenchmarkServeHotPath measures the warm in-process serve loop — frame
// decode → scratch-backed execution → frame encode → message release — for
// one range query in ids mode, one k-NN in data mode (the benchmark's k-NN
// shape) at K 1 and 8, and one router k-NN leg (a one-item ModeNeighbors
// batch). ReportAllocs is the regression guard: every row must stay at 0
// allocs/op.
func BenchmarkServeHotPath(b *testing.B) {
	ds, _, srv, _ := testWorld(b, nil)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 400, Y: center.Y - 400},
		Max: geom.Point{X: center.X + 400, Y: center.Y + 400},
	}
	rows := []struct {
		name string
		req  proto.Message
	}{
		{"range-ids", &proto.QueryMsg{ID: 7, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w}},
		{"nn-data-k1", &proto.QueryMsg{ID: 7, Kind: proto.KindNN, Mode: proto.ModeData, Point: center, K: 1}},
		{"nn-data-k8", &proto.QueryMsg{ID: 7, Kind: proto.KindNN, Mode: proto.ModeData, Point: center, K: 8}},
		{"neighbors-item", &proto.BatchQueryMsg{ID: 7, Queries: []proto.QueryMsg{
			{Kind: proto.KindNN, Mode: proto.ModeNeighbors, Point: center, K: 8}}}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			frame, err := proto.EncodeMessage(row.req)
			if err != nil {
				b.Fatal(err)
			}
			rd := bytes.NewReader(nil)
			sc := srv.getScratch()
			var out []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				msg, _, rerr := proto.ReadMessage(rd)
				if rerr != nil {
					b.Fatal(rerr)
				}
				resp := srv.execute(msg.(proto.Request), sc, time.Time{})
				if _, bad := resp.(*proto.ErrorMsg); bad {
					b.Fatalf("%s answered %+v", row.name, resp)
				}
				if out, rerr = proto.AppendFrame(out[:0], resp); rerr != nil {
					b.Fatal(rerr)
				}
				proto.ReleaseMessage(msg)
			}
		})
	}
}

// BenchmarkBatchVsSingle compares N single-query exchanges against one
// N-query batch over real loopback TCP. Reported metrics: queries/s and
// frames per query (from the client's wire counters) — the acceptance
// numbers in results/BENCH_hotpath.json come from this benchmark.
func BenchmarkBatchVsSingle(b *testing.B) {
	const batchN = 16
	run := func(b *testing.B, batched bool) {
		ds, _, _, addr := testWorld(b, nil)
		c := newClient(b, addr, 1)
		center := ds.Extent.Center()
		w := geom.Rect{
			Min: geom.Point{X: center.X - 400, Y: center.Y - 400},
			Max: geom.Point{X: center.X + 400, Y: center.Y + 400},
		}
		var qs []proto.QueryMsg
		for i := 0; i < batchN; i++ {
			qs = append(qs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w})
		}
		before := c.WireStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batched {
				if _, err := c.QueryBatch(qs); err != nil {
					b.Fatal(err)
				}
			} else {
				for j := 0; j < batchN; j++ {
					if _, err := c.RangeIDs(w); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.StopTimer()
		after := c.WireStats()
		queries := float64(after.Queries - before.Queries)
		frames := float64(after.FramesTx - before.FramesTx + after.FramesRx - before.FramesRx)
		bytesWire := float64(after.BytesTx - before.BytesTx + after.BytesRx - before.BytesRx)
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(queries/sec, "queries/s")
		}
		if queries > 0 {
			b.ReportMetric(frames/queries, "frames/query")
			b.ReportMetric(bytesWire/queries, "wirebytes/query")
		}
	}
	b.Run("single", func(b *testing.B) { run(b, false) })
	b.Run("batch16", func(b *testing.B) { run(b, true) })
}
