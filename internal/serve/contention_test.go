package serve

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// TestPipelinedBatchContention hammers ONE server connection with pipelined
// single queries and batches from many goroutines and cross-checks every
// response against serial pool reference answers. Under -race this is the
// proof that the pooled request scratch, the pooled wire messages, and the
// flush-coalescing writer don't share state across concurrent requests.
func TestPipelinedBatchContention(t *testing.T) {
	ds, pool, _, addr := testWorld(t, nil)
	ext := ds.Extent

	const writers = 8
	const perW = 30 // requests per writer; roughly half are batches

	// Build every request and its reference answer serially up front, in the
	// order contract's form: ids ascending, k-NN nearest first.
	type pending struct {
		req  proto.Message
		want [][]uint32 // one element for singles, one per item for batches
	}
	var all []pending
	nextID := uint32(1)
	rng := rand.New(rand.NewSource(99))
	mkQuery := func() (proto.QueryMsg, []uint32) {
		cx := ext.Min.X + rng.Float64()*ext.Width()
		cy := ext.Min.Y + rng.Float64()*ext.Height()
		pt := geom.Point{X: cx, Y: cy}
		half := 50 + rng.Float64()*1000
		w := geom.Rect{
			Min: geom.Point{X: cx - half, Y: cy - half},
			Max: geom.Point{X: cx + half, Y: cy + half},
		}
		switch rng.Intn(4) {
		case 0:
			return proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w}, ascending(pool.RangeAppend(nil, w))
		case 1:
			return proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt}, ascending(pool.PointAppend(nil, pt, DefaultPointEps))
		case 2:
			return proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w}, ascending(pool.FilterRangeAppend(nil, w))
		default:
			k := 1 + rng.Intn(6)
			var ids []uint32
			nbs, _ := pool.KNearestAppend(nil, pt, k, nil)
			for _, nb := range nbs {
				ids = append(ids, nb.ID)
			}
			return proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: uint16(k)}, ids
		}
	}
	for i := 0; i < writers*perW; i++ {
		if i%2 == 0 {
			q, want := mkQuery()
			q.ID = nextID
			nextID++
			qm := q // heap copy with its own ID
			all = append(all, pending{req: &qm, want: [][]uint32{want}})
		} else {
			n := 1 + rng.Intn(8)
			bm := &proto.BatchQueryMsg{ID: nextID}
			nextID++
			var wants [][]uint32
			for j := 0; j < n; j++ {
				q, want := mkQuery()
				bm.Queries = append(bm.Queries, q)
				wants = append(wants, want)
			}
			all = append(all, pending{req: bm, want: wants})
		}
	}
	expect := make(map[uint32][][]uint32, len(all))
	for _, p := range all {
		expect[p.req.RequestID()] = p.want
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Writers share the connection behind one mutex; responses interleave
	// arbitrarily and are matched by request id.
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perW; i < (w+1)*perW; i++ {
				wmu.Lock()
				_, werr := proto.WriteMessage(nc, all[i].req)
				wmu.Unlock()
				if werr != nil {
					t.Errorf("write: %v", werr)
					return
				}
			}
		}(w)
	}

	seen := make(map[uint32]bool, len(all))
	for len(seen) < len(all) {
		msg, _, rerr := proto.ReadMessage(nc)
		if rerr != nil {
			t.Fatalf("read after %d/%d responses: %v", len(seen), len(all), rerr)
		}
		id := msg.RequestID()
		want, ok := expect[id]
		if !ok || seen[id] {
			t.Fatalf("unexpected or duplicate response id %d", id)
		}
		seen[id] = true
		switch m := msg.(type) {
		case *proto.IDListMsg:
			if len(want) != 1 || !slices.Equal(m.IDs, want[0]) {
				t.Fatalf("id %d: single answer diverged under contention", id)
			}
		case *proto.BatchReplyMsg:
			if len(m.Items) != len(want) {
				t.Fatalf("id %d: %d items, want %d", id, len(m.Items), len(want))
			}
			for j := range m.Items {
				if m.Items[j].Err != 0 {
					t.Fatalf("id %d item %d: error %v", id, j, m.Items[j].Err)
				}
				if !slices.Equal(m.Items[j].IDs, want[j]) {
					t.Fatalf("id %d item %d: batch answer diverged under contention", id, j)
				}
			}
		default:
			t.Fatalf("id %d: unexpected %v response", id, msg.Type())
		}
		proto.ReleaseMessage(msg)
	}
	wg.Wait()
}
