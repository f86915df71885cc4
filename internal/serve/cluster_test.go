package serve

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/shard"
)

// askNN sends one raw MsgNNQuery leg and decodes the reply.
func askNN(t *testing.T, nc net.Conn, id uint32, pt geom.Point, k uint16, bound float64) []proto.Neighbor {
	t.Helper()
	if _, err := proto.WriteMessage(nc, &proto.NNQueryMsg{ID: id, Point: pt, K: k, Bound: bound}); err != nil {
		t.Fatalf("write nn leg: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, _, err := proto.ReadMessage(nc)
	if err != nil {
		t.Fatalf("read nn reply: %v", err)
	}
	nm, ok := msg.(*proto.NeighborsMsg)
	if !ok {
		t.Fatalf("nn leg answered with %v: %+v", msg.Type(), msg)
	}
	if nm.ID != id {
		t.Fatalf("nn reply id %d, want %d", nm.ID, id)
	}
	out := append([]proto.Neighbor(nil), nm.Neighbors...)
	proto.ReleaseMessage(msg)
	return out
}

// TestNNLegMatchesPool answers MsgNNQuery legs on a sharded server and
// checks them against direct pool execution: exact distances, ascending
// order, and — with a finite bound — no lost neighbor below the bound.
func TestNNLegMatchesPool(t *testing.T) {
	ds, pool, _, addr := testWorldSharded(t, 8, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	ext := ds.Extent
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		pt := geom.Point{
			X: ext.Min.X + rng.Float64()*ext.Width(),
			Y: ext.Min.Y + rng.Float64()*ext.Height(),
		}
		k := 1 + rng.Intn(8)
		want, _ := pool.KNearestAppend(nil, pt, k, nil)

		got := askNN(t, nc, uint32(100+i), pt, uint16(k), math.Inf(1))
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d neighbors, want %d", k, len(got), len(want))
		}
		for j := range got {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("neighbor %d: got %+v want %+v", j, got[j], want[j])
			}
			if j > 0 && got[j].Dist < got[j-1].Dist {
				t.Fatalf("neighbors not ascending at %d", j)
			}
		}

		// A finite bound at the true k-th distance must keep every neighbor
		// strictly below it (the bound is a pruning hint, not a filter).
		if len(want) == 0 {
			continue
		}
		kth := want[len(want)-1].Dist
		bounded := askNN(t, nc, uint32(1000+i), pt, uint16(k), kth+1e-9)
		for j, nb := range want {
			if nb.Dist >= kth {
				break
			}
			if j >= len(bounded) || bounded[j].ID != nb.ID || bounded[j].Dist != nb.Dist {
				t.Fatalf("bounded leg lost neighbor %+v: got %+v", nb, bounded)
			}
		}
	}

	// K=0 means single nearest.
	pt := ext.Center()
	got := askNN(t, nc, 9999, pt, 0, 0)
	if nn := pool.NearestWith(pt, nil); nn.OK {
		if len(got) != 1 || got[0].ID != nn.ID || got[0].Dist != nn.Dist {
			t.Fatalf("k=0 leg: got %+v want %+v", got, nn)
		}
	}
}

// TestNNLegRejectsOversizeK checks the maxKNN guard applies to NN legs.
func TestNNLegRejectsOversizeK(t *testing.T) {
	_, _, _, addr := testWorld(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := proto.WriteMessage(nc, &proto.NNQueryMsg{ID: 5, Point: geom.Point{X: 1, Y: 1}, K: maxKNN + 1}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, _, err := proto.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(*proto.ErrorMsg)
	if !ok || em.Code != proto.CodeBadRequest {
		t.Fatalf("got %v, want bad-request", msg.Type())
	}
}

// TestSummaryReply checks both deployment shapes: a monolithic server
// synthesizes one whole-key-space range; a server configured with explicit
// ranges reports them verbatim along with the cluster range count.
func TestSummaryReply(t *testing.T) {
	ask := func(addr string) *proto.SummaryMsg {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := proto.WriteMessage(nc, &proto.SummaryReqMsg{ID: 42}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		msg, _, err := proto.ReadMessage(nc)
		if err != nil {
			t.Fatal(err)
		}
		sm, ok := msg.(*proto.SummaryMsg)
		if !ok {
			t.Fatalf("summary answered with %v", msg.Type())
		}
		if sm.ID != 42 {
			t.Fatalf("summary id %d", sm.ID)
		}
		return sm
	}

	ds, pool, _, monoAddr := testWorld(t, nil)
	sm := ask(monoAddr)
	if sm.NumRanges != 1 || len(sm.Ranges) != 1 {
		t.Fatalf("monolithic summary: %+v", sm)
	}
	if sm.Items != uint64(pool.Len()) || sm.Items != uint64(len(ds.Items())) {
		t.Fatalf("summary items %d, pool %d", sm.Items, pool.Len())
	}
	if r := sm.Ranges[0]; r.Lo != 0 || r.Hi != math.MaxUint64 || r.Index != 0 {
		t.Fatalf("synthetic range %+v", r)
	}
	if sm.Bounds != pool.Bounds() {
		t.Fatalf("summary bounds %v, pool %v", sm.Bounds, pool.Bounds())
	}

	ranges := []proto.RangeInfo{
		{Index: 2, Items: 10, Lo: 100, Hi: 200, MBR: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 5, Y: 5}}},
		{Index: 3, Items: 20, Lo: 201, Hi: 300, MBR: geom.Rect{Min: geom.Point{X: 5, Y: 0}, Max: geom.Point{X: 9, Y: 5}}},
	}
	_, _, _, partAddr := testWorld(t, func(cfg *Config) {
		cfg.Ranges = ranges
		cfg.NumRanges = 5
	})
	sm = ask(partAddr)
	if sm.NumRanges != 5 || len(sm.Ranges) != len(ranges) {
		t.Fatalf("partitioned summary: %+v", sm)
	}
	for i, r := range sm.Ranges {
		if r != ranges[i] {
			t.Fatalf("range %d: got %+v want %+v", i, r, ranges[i])
		}
	}
}

// panicPool wraps an Executor with one query kind that panics — the fault
// model for TestPanicContainment.
type panicPool struct {
	Executor
}

func (p *panicPool) FilterPointAppend(dst []uint32, pt geom.Point) []uint32 {
	panic("injected executor fault")
}

// TestPanicContainment drives a panicking query and checks the request is
// answered CodeInternal, the server survives, and later queries (which
// reuse the scratch pool) still answer correctly.
func TestPanicContainment(t *testing.T) {
	ds, tree := testDataset(t)
	pool, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{Pool: &panicPool{Executor: pool}, Master: tree})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	if _, err := proto.WriteMessage(nc, &proto.QueryMsg{
		ID: 1, Kind: proto.KindPoint, Mode: proto.ModeFilter, Point: geom.Point{X: 1, Y: 1},
	}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, _, err := proto.ReadMessage(nc)
	if err != nil {
		t.Fatalf("panicking request dropped the connection: %v", err)
	}
	em, ok := msg.(*proto.ErrorMsg)
	if !ok || em.Code != proto.CodeInternal {
		t.Fatalf("got %v %+v, want internal error", msg.Type(), msg)
	}

	// The server must still answer ordinary queries afterwards.
	w := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 2000, Y: 2000}}
	if _, err := proto.WriteMessage(nc, &proto.QueryMsg{
		ID: 2, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w,
	}); err != nil {
		t.Fatal(err)
	}
	msg, _, err = proto.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	lst, ok := msg.(*proto.IDListMsg)
	if !ok {
		t.Fatalf("post-panic query answered with %v", msg.Type())
	}
	if !sameIDs(lst.IDs, pool.RangeAppend(nil, w)) {
		t.Fatal("post-panic answer mismatched")
	}
	if srv.Stats().Errors == 0 {
		t.Fatal("panic not counted as an error")
	}
}
