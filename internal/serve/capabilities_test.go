package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/shard"
)

// partitionedMutable builds cluster backend be of n at R=replicas the way
// cmd/mqserve -partition -mutable does: one updatable shard per held Hilbert
// range to start with, keyed by the cluster-wide cuts. It returns the pool
// and the range rows the backend registers with.
func partitionedMutable(t testing.TB, ds *dataset.Dataset, be, n, replicas int) (*mutable.Pool, []proto.RangeInfo) {
	t.Helper()
	ranges, bounds := shard.PartitionHilbert(ds.Items(), n, 0)
	cuts := make([]uint64, len(ranges))
	for i, rg := range ranges {
		cuts[i] = rg.Lo
	}
	idxs, err := shard.ReplicaRanges(be, n, replicas)
	if err != nil {
		t.Fatal(err)
	}
	var held []shard.Range
	var infos []proto.RangeInfo
	for _, ri := range idxs {
		rg := ranges[ri]
		held = append(held, rg)
		infos = append(infos, proto.RangeInfo{
			Index: uint32(rg.Index), Items: uint32(len(rg.Items)),
			Lo: rg.Lo, Hi: rg.Hi, MBR: rg.MBR,
		})
	}
	pool, err := mutable.New(mutable.Config{
		Dataset: ds, Ranges: held, Cuts: cuts, Bounds: bounds, CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool, infos
}

// monolithicMutable builds the pool cmd/mqserve -mutable [-adaptive] does.
func monolithicMutable(t testing.TB, ds *dataset.Dataset, adaptive bool) *mutable.Pool {
	t.Helper()
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{
		CompactInterval: -1,
		Adaptive:        mutable.AdaptiveConfig{Enabled: adaptive, Interval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestPoolCapabilities builds every pool kind a Server can front and pins
// the capability struct New resolves for each — the DESIGN.md pool ×
// capability table, as a test — that each answers a router's NN leg
// (ModeNeighbors) as its engine answers the k-NN, and that its summary rows
// cover what the pool holds.
func TestPoolCapabilities(t *testing.T) {
	ds, tree := testDataset(t)
	one, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.New(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	part, partRanges := partitionedMutable(t, ds, 0, 3, 2)

	type want struct {
		updates, liveSummary, boundedNN, batchRouting, validityView, distributed bool
	}
	cases := []struct {
		name string
		cfg  Config
		want want
	}{
		// One engine, so one row twice: the unsharded server (one shard over
		// the master tree, what bench reaches as parallel.New) carries a
		// router's NN bound exactly as the sharded one does.
		{"frozen, one shard", Config{Pool: one}, want{boundedNN: true, validityView: true}},
		{"frozen, sharded", Config{Pool: sp}, want{boundedNN: true, validityView: true}},
		{"mutable monolithic", Config{Pool: monolithicMutable(t, ds, false)},
			want{updates: true, liveSummary: true, boundedNN: true, validityView: true}},
		{"mutable partitioned", Config{Pool: part, Ranges: partRanges, NumRanges: 3},
			want{updates: true, liveSummary: true, boundedNN: true, validityView: true}},
		{"mutable adaptive", Config{Pool: monolithicMutable(t, ds, true)},
			want{updates: true, liveSummary: true, boundedNN: true, validityView: true}},
		{"router", Config{Pool: startRouterBench(t, ds, 3, 2)},
			want{updates: true, batchRouting: true, validityView: true, distributed: true}},
	}
	for _, tc := range cases {
		srv, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		c := srv.caps
		got := want{
			updates:      c.upd != nil,
			liveSummary:  c.live != nil,
			boundedNN:    c.bnn != nil,
			batchRouting: c.bx != nil,
			validityView: c.view != nil,
			distributed:  c.distributed,
		}
		if got != tc.want {
			t.Errorf("%s: capabilities %+v, want %+v", tc.name, got, tc.want)
		}
		if _, local := srv.eng.(localEngine); local == tc.want.distributed {
			t.Errorf("%s: engine %T, distributed=%v", tc.name, srv.eng, tc.want.distributed)
		}
		checkNeighborsMode(t, tc.name, srv, ds.Extent)
		if !tc.want.distributed {
			checkSummaryRows(t, tc.name, srv, ds.Len())
		}
	}
}

// checkSummaryRows: a local pool's summary rows hold every item once — a
// partitioned backend's rows hold what it was built from — and their MBRs
// cover the pool's bounds.
func checkSummaryRows(t *testing.T, name string, srv *Server, n int) {
	t.Helper()
	sm := srv.summaryReply(1)
	if err := sm.Validate(); err != nil || len(sm.Ranges) == 0 {
		t.Fatalf("%s: summary %+v invalid: %v", name, sm, err)
	}
	items, mbr := 0, geom.EmptyRect()
	for _, r := range sm.Ranges {
		items += int(r.Items)
		mbr = mbr.Union(r.MBR)
	}
	if held := srv.cfg.Ranges; held != nil {
		n = 0
		for _, r := range held {
			n += int(r.Items)
		}
	}
	if items != n {
		t.Errorf("%s: summary rows hold %d items, the pool %d", name, items, n)
	}
	if b := poolBounds(srv.cfg.Pool); !b.IsEmpty() && !mbr.ContainsRect(b) {
		t.Errorf("%s: summary rows cover %v, the pool's bounds are %v", name, mbr, b)
	}
}

// checkNeighborsMode: every pool kind answers a ModeNeighbors batch item with
// exactly the neighbors and distances its engine's k-NN finds — unbounded,
// and bounded by the k-th of them in Eps — and refuses the mode on a lone
// MsgQuery.
func checkNeighborsMode(t *testing.T, name string, srv *Server, ext geom.Rect) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		pt := geom.Point{X: ext.Min.X + rng.Float64()*ext.Width(), Y: ext.Min.Y + rng.Float64()*ext.Height()}
		nbs, err := srv.eng.KNearestAppendUntil(nil, pt, 8, nil, deadline)
		if err != nil || len(nbs) != 8 {
			t.Fatalf("%s: engine k-NN answered %v, %v", name, nbs, err)
		}
		var want []proto.Neighbor
		for _, nb := range nbs {
			want = append(want, proto.Neighbor{ID: nb.ID, Dist: nb.Dist})
		}
		for _, bound := range []float64{0, want[7].Dist} {
			batch := &proto.BatchQueryMsg{ID: 2, Queries: []proto.QueryMsg{
				{Kind: proto.KindNN, Mode: proto.ModeNeighbors, Point: pt, K: 8, Eps: bound},
			}}
			reply, ok := srv.execute(batch, srv.getScratch(), deadline).(*proto.BatchReplyMsg)
			if !ok || reply.Items[0].Err != 0 {
				t.Fatalf("%s: neighbors-mode batch (bound %v) answered %+v", name, bound, reply)
			}
			if got := reply.Items[0]; !slices.Equal(got.Nbrs, want) || len(got.IDs) != 0 {
				t.Fatalf("%s: neighbors-mode item (bound %v) %+v, the engine found %v", name, bound, got, want)
			}
		}
	}
	lone := &proto.QueryMsg{ID: 3, Kind: proto.KindNN, Mode: proto.ModeNeighbors, K: 8}
	if em, ok := srv.execute(lone, srv.getScratch(), deadline).(*proto.ErrorMsg); !ok || em.Code != proto.CodeBadRequest {
		t.Fatalf("%s: a lone neighbors-mode query answered %+v, want bad-request", name, em)
	}
}

// batchOnlyPool routes batches but has no fallible query surface.
type batchOnlyPool struct{ Executor }

func (batchOnlyPool) RunQueryBatch([]proto.QueryMsg, []proto.BatchItem, time.Time) {}

// TestNewRejectsFanOutWithoutDeadlineSurface: a pool that fans out (it
// routes batches) must bring the fallible surface; New refuses to fall back
// to Executor methods that would swallow a failed leg.
func TestNewRejectsFanOutWithoutDeadlineSurface(t *testing.T) {
	ds, tree := testDataset(t)
	par, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Pool: batchOnlyPool{par}}); err == nil {
		t.Fatal("New accepted a batch-routing pool without DeadlineExecutor")
	}
}

// TestLiveSummaryShapes: every mutable pool answers MsgSummary by one rule —
// one row per held cluster range, at the range's index and Lo key, holding
// its items, at version 0 before any write — whether it is monolithic (one
// range, the whole key space, however many local shards, adaptive or not)
// or a partitioned backend. Each reply validates, and a write moves the
// owning row's Version by one, its Items and MBR with it.
func TestLiveSummaryShapes(t *testing.T) {
	ds, _ := testDataset(t)
	mono := monolithicMutable(t, ds, false)
	part, partRanges := partitionedMutable(t, ds, 0, 3, 2)
	adaptive := monolithicMutable(t, ds, true)
	whole := []proto.RangeInfo{{Index: 0, Items: uint32(ds.Len()), Lo: 0, Hi: math.MaxUint64}}

	cases := []struct {
		name    string
		pool    *mutable.Pool
		cfg     Config
		wantNum uint32
		held    []proto.RangeInfo // the rows the pool must answer, in order
		anchor  uint32            // an id the pool owns: the write lands on its range
	}{
		{"monolithic", mono, Config{Pool: mono}, 1, whole, 0},
		{"partitioned", part, Config{Pool: part, Ranges: partRanges, NumRanges: 3}, 3, partRanges, firstHeldID(t, ds, 0, 3, 2)},
		{"adaptive", adaptive, Config{Pool: adaptive}, 1, whole, 0},
	}
	for _, tc := range cases {
		srv, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		before := srv.summaryReply(7)
		if err := before.Validate(); err != nil {
			t.Fatalf("%s: summary invalid: %v", tc.name, err)
		}
		if before.ID != 7 || before.NumRanges != tc.wantNum || len(before.Ranges) != len(tc.held) {
			t.Fatalf("%s: summary id=%d num=%d rows=%d, want 7/%d/%d",
				tc.name, before.ID, before.NumRanges, len(before.Ranges), tc.wantNum, len(tc.held))
		}
		for i, r := range before.Ranges {
			if h := tc.held[i]; r.Index != h.Index || r.Lo != h.Lo || r.Items != h.Items || r.Version != 0 {
				t.Fatalf("%s: row %d = %+v, want range %d at Lo %d holding %d at version 0", tc.name, i, r, h.Index, h.Lo, h.Items)
			}
		}
		if hi := before.Ranges[0].Hi; tc.wantNum == 1 && hi != math.MaxUint64 {
			t.Fatalf("%s: the one range ends at %d, not the top of the key space", tc.name, hi)
		}

		// A long segment centred on an owned object keeps that object's
		// Hilbert key (so the same range owns it) and sticks out of every MBR.
		c := ds.Seg(tc.anchor).MBR().Center()
		d := ds.Extent.Width() + ds.Extent.Height()
		seg := geom.Segment{A: geom.Point{X: c.X - d, Y: c.Y - d}, B: geom.Point{X: c.X + d, Y: c.Y + d}}
		if _, _, owned, err := tc.pool.ApplyInsert(uint32(ds.Len()+1), seg); err != nil || !owned {
			t.Fatalf("%s: insert owned=%v err=%v", tc.name, owned, err)
		}

		after := srv.summaryReply(8)
		if err := after.Validate(); err != nil {
			t.Fatalf("%s: summary after write invalid: %v", tc.name, err)
		}
		moved := 0
		for i, r := range after.Ranges {
			b := before.Ranges[i]
			if r.Version == b.Version {
				continue
			}
			moved++
			if r.Version != b.Version+1 || r.Items != b.Items+1 || !r.MBR.ContainsRect(seg.MBR()) || b.MBR.ContainsRect(seg.MBR()) {
				t.Errorf("%s: written row %+v, was %+v", tc.name, r, b)
			}
		}
		if moved != 1 {
			t.Errorf("%s: %d rows moved version after one write, want 1", tc.name, moved)
		}
	}
}

// firstHeldID returns the id of an object in the first range backend be of n
// holds at R=replicas.
func firstHeldID(t testing.TB, ds *dataset.Dataset, be, n, replicas int) uint32 {
	t.Helper()
	ranges, _ := shard.PartitionHilbert(ds.Items(), n, 0)
	idxs, err := shard.ReplicaRanges(be, n, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return ranges[idxs[0]].Items[0].ID
}
