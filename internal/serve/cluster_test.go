package serve

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/shard"
)

// askNN sends one raw k-NN leg — a one-item ModeNeighbors batch, the bound
// in Eps — and decodes the reply item.
func askNN(t *testing.T, nc net.Conn, id uint32, pt geom.Point, k uint16, bound float64) proto.BatchItem {
	t.Helper()
	leg := &proto.BatchQueryMsg{ID: id, Queries: []proto.QueryMsg{
		{Kind: proto.KindNN, Mode: proto.ModeNeighbors, Point: pt, K: k, Eps: bound},
	}}
	if _, err := proto.WriteMessage(nc, leg); err != nil {
		t.Fatalf("write nn leg: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, _, err := proto.ReadMessage(nc)
	if err != nil {
		t.Fatalf("read nn reply: %v", err)
	}
	br, ok := msg.(*proto.BatchReplyMsg)
	if !ok {
		t.Fatalf("nn leg answered with %v: %+v", msg.Type(), msg)
	}
	if br.ID != id || len(br.Items) != 1 {
		t.Fatalf("nn reply id %d with %d items, want id %d with 1", br.ID, len(br.Items), id)
	}
	it := br.Items[0]
	it.Nbrs = append([]proto.Neighbor(nil), it.Nbrs...)
	proto.ReleaseMessage(msg)
	return it
}

// TestNNLegMatchesPool answers k-NN legs on a sharded server and checks them
// against direct pool execution: exact distances, ascending order, the bound
// in Eps losing no neighbor below it — and pruning shards: a leg bounded
// below the pool's own k-th distance, as a router's running bound is once
// another backend answered nearer, skips shards the unbounded leg walks.
func TestNNLegMatchesPool(t *testing.T) {
	reg := obs.NewRegistry()
	ds, tree := testDataset(t)
	pool, err := shard.New(ds, shard.Config{Shards: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	_, addr := startServer(t, Config{Pool: pool, Master: tree})
	pruned := reg.Counter("shard_nn_shards_pruned_total")
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	ext := ds.Extent
	rng := rand.New(rand.NewSource(7))
	var prunedFree, prunedBounded uint64
	for i := 0; i < 30; i++ {
		pt := geom.Point{
			X: ext.Min.X + rng.Float64()*ext.Width(),
			Y: ext.Min.Y + rng.Float64()*ext.Height(),
		}
		k := 16 + rng.Intn(49)
		want, _ := pool.KNearestAppend(nil, pt, k, nil)

		before := pruned.Value()
		got := askNN(t, nc, uint32(100+i), pt, uint16(k), 0)
		prunedFree += pruned.Value() - before
		if got.Err != 0 || len(got.Nbrs) != len(want) {
			t.Fatalf("k=%d: got %d neighbors (code %d), want %d", k, len(got.Nbrs), got.Err, len(want))
		}
		for j, nb := range got.Nbrs {
			if nb.ID != want[j].ID || nb.Dist != want[j].Dist {
				t.Fatalf("neighbor %d: got %+v want %+v", j, nb, want[j])
			}
			if j > 0 && nb.Dist < got.Nbrs[j-1].Dist {
				t.Fatalf("neighbors not ascending at %d", j)
			}
		}

		// The bound is a pruning hint, not a filter: every neighbor strictly
		// below it is kept, rank for rank.
		bound := want[len(want)-1].Dist / 2
		before = pruned.Value()
		bounded := askNN(t, nc, uint32(1000+i), pt, uint16(k), bound)
		prunedBounded += pruned.Value() - before
		for j, nb := range want {
			if nb.Dist >= bound {
				break
			}
			if j >= len(bounded.Nbrs) || bounded.Nbrs[j] != (proto.Neighbor{ID: nb.ID, Dist: nb.Dist}) {
				t.Fatalf("bounded leg lost neighbor %+v: got %+v", nb, bounded.Nbrs)
			}
		}
	}
	t.Logf("shards pruned over 30 legs: %d unbounded, %d bounded", prunedFree, prunedBounded)
	if prunedBounded <= prunedFree {
		t.Errorf("bounded legs pruned %d shards, unbounded ones %d: the bound in Eps prunes nothing", prunedBounded, prunedFree)
	}

	// K=0 means single nearest.
	pt := ext.Center()
	got := askNN(t, nc, 9999, pt, 0, 0)
	if nn := pool.NearestWith(pt, nil); nn.OK {
		if len(got.Nbrs) != 1 || got.Nbrs[0].ID != nn.ID || got.Nbrs[0].Dist != nn.Dist {
			t.Fatalf("k=0 leg: got %+v want %+v", got.Nbrs, nn)
		}
	}
}

// TestNNLegRejectsOversizeK checks the maxKNN guard applies to NN legs: the
// item fails CodeBadRequest, the frame still answers.
func TestNNLegRejectsOversizeK(t *testing.T) {
	_, _, _, addr := testWorld(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if it := askNN(t, nc, 5, geom.Point{X: 1, Y: 1}, maxKNN+1, 0); it.Err != proto.CodeBadRequest {
		t.Fatalf("got item code %v (%s), want bad-request", it.Err, it.Text)
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
	r := sm.Ranges[0]
	if r.Lo != 0 || r.Hi != math.MaxUint64 || r.Index != 0 {
		t.Fatalf("synthetic range %+v", r)
	}
	if int(r.Items) != pool.Len() || int(r.Items) != len(ds.Items()) {
		t.Fatalf("synthetic range items %d, pool %d", r.Items, pool.Len())
	}
	if r.MBR != pool.Bounds() {
		t.Fatalf("synthetic range MBR %v, pool bounds %v", r.MBR, pool.Bounds())
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

// panicPool wraps a local pool with one query kind that panics — the fault
// model for TestPanicContainment.
type panicPool struct {
	localPool
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
	srv, addr := startServer(t, Config{Pool: &panicPool{localPool: pool}, Master: tree})

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
