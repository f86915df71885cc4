package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
)

// TestDataRecordsUnderChurn is DESIGN §15's data-mode records row at the
// serving tier. Over a -mutable pool (four shards, compacting every few
// milliseconds) one object ping-pongs between two corners of the map that
// fall in different shards, and another is deleted and re-inserted at
// alternating corners, while readers ask data-mode windows, points and
// k-NN at both corners, single and batched, through an uncached server and
// a cached one. Every record must satisfy its query at the segment it
// carries: a window's meets the window, a point's passes within eps, a
// k-NN's come nearest first by the distance of the segments they carry. No
// record is the zero segment, and the moving objects carry only positions
// they held. A record looked up after the walk instead of taken from it
// fails this within the run: the object has moved on, or is gone.
func TestDataRecordsUnderChurn(t *testing.T) {
	ds, _ := testDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: 2 * time.Millisecond, CompactMaxAge: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	var srvs []*Server
	for _, cfg := range []Config{{Pool: pool}, {Pool: pool, Cache: qcache.New(qcache.Config{MaxBytes: 1 << 20, CellSize: 64})}} {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}

	ext := ds.Extent
	at := func(c geom.Point, dx, dy float64) geom.Segment {
		return geom.Segment{A: geom.Point{X: c.X + dx, Y: c.Y + dy}, B: geom.Point{X: c.X + dx + 60, Y: c.Y + dy + 30}}
	}
	low, high := ext.Min, geom.Point{X: ext.Max.X - 200, Y: ext.Max.Y - 200}
	mover, churner := uint32(ds.Len()), uint32(ds.Len()+1)
	held := map[uint32][2]geom.Segment{
		mover:   {at(low, 100, 100), at(high, 100, 100)},
		churner: {at(low, 100, 130), at(high, 100, 130)},
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	write := func(f func(i int) error) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	write(func(i int) error {
		_, _, _, err := pool.ApplyMove(mover, held[mover][i%2])
		return err
	})
	write(func(i int) error {
		if i%2 == 1 {
			_, _, _, err := pool.ApplyDelete(churner)
			return err
		}
		_, _, _, err := pool.ApplyMove(churner, held[churner][i/2%2])
		return err
	})

	var queries []proto.QueryMsg
	for _, c := range []geom.Point{low, high} {
		sg := at(c, 100, 100)
		queries = append(queries,
			proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: sg.MBR().Expand(10)},
			proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeData, Point: sg.Midpoint()},
			proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: sg.A, K: 3})
	}
	var sightings atomic.Int64
	check := func(label string, q *proto.QueryMsg, recs []proto.Record) error {
		var prev rtree.Neighbor
		for i, rec := range recs {
			if rec.Seg == (geom.Segment{}) {
				return fmt.Errorf("%s: record %d is the zero segment", label, rec.ID)
			}
			if pos, moving := held[rec.ID]; moving {
				sightings.Add(1)
				if rec.Seg != pos[0] && rec.Seg != pos[1] {
					return fmt.Errorf("%s: object %d carries %v, never its position", label, rec.ID, rec.Seg)
				}
			}
			switch q.Kind {
			case proto.KindRange:
				if !rec.Seg.IntersectsRect(q.Window) {
					return fmt.Errorf("%s: record %d at %v misses window %v", label, rec.ID, rec.Seg, q.Window)
				}
			case proto.KindPoint:
				if !rec.Seg.MBR().ContainsPoint(q.Point) || !rec.Seg.ContainsPoint(q.Point, DefaultPointEps) {
					return fmt.Errorf("%s: record %d at %v does not pass %v", label, rec.ID, rec.Seg, q.Point)
				}
			default:
				nb := rtree.Neighbor{ID: rec.ID, Dist: rec.Seg.DistToPoint(q.Point)}
				if i > 0 && !prev.Before(nb) {
					return fmt.Errorf("%s: record %d at %v (distance %v) after %d at distance %v", label, rec.ID, rec.Seg, nb.Dist, prev.ID, prev.Dist)
				}
				prev = nb
			}
		}
		return nil
	}

	var readers sync.WaitGroup
	for ri, srv := range srvs {
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func(srv *Server, g int) {
				defer readers.Done()
				sc := srv.getScratch()
				for until := time.Now().Add(400 * time.Millisecond); time.Now().Before(until); {
					for i := range queries {
						q := &queries[i]
						label := fmt.Sprintf("server %d reader %d %v", ri, g, q.Kind)
						var recs []proto.Record
						switch r := srv.execute(q, sc, time.Time{}).(type) {
						case *proto.DataListMsg:
							recs = r.Records
						default:
							t.Errorf("%s: answered %+v", label, r)
							return
						}
						if err := check(label, q, recs); err != nil {
							t.Error(err)
							return
						}
					}
					batch := &proto.BatchQueryMsg{Queries: queries}
					reply, ok := srv.execute(batch, sc, time.Time{}).(*proto.BatchReplyMsg)
					if !ok {
						t.Errorf("server %d reader %d: batch failed", ri, g)
						return
					}
					for i := range reply.Items {
						if err := check(fmt.Sprintf("server %d reader %d batch item %d", ri, g, i), &queries[i], reply.Items[i].Recs); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(srv, g)
		}
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if n := sightings.Load(); n < 100 {
		t.Fatalf("the readers sighted the moving objects %d times; the run proves nothing below 100", n)
	}
	t.Logf("%d sightings of the moving objects", sightings.Load())
}
