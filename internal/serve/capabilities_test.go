package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// hold is what cluster backend be of n holds at R=replicas.
func hold(t testing.TB, ds *dataset.Dataset, be, n, replicas int) shard.Held {
	t.Helper()
	held, err := shard.Cut(ds.Items(), n).Hold(be, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return held
}

// partitionedMutable builds cluster backend be of n at R=replicas the way
// cmd/mqserve -partition -mutable does: one updatable shard per held Hilbert
// range to start with, keyed by the cluster-wide cuts. It returns the pool
// and the range rows the backend registers with.
func partitionedMutable(t testing.TB, ds *dataset.Dataset, be, n, replicas int) (*mutable.Pool, []proto.RangeInfo) {
	t.Helper()
	held := hold(t, ds, be, n, replicas)
	pool, err := mutable.New(mutable.Config{
		Dataset: ds, Ranges: held.Ranges, Cuts: held.Cuts, Bounds: held.Bounds, CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool, held.Rows()
}

// monolithicMutable builds the pool cmd/mqserve -mutable [-shards n] does.
func monolithicMutable(t testing.TB, ds *dataset.Dataset, shards int) *mutable.Pool {
	t.Helper()
	pool, err := mutable.NewFromDataset(ds, shards, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestPoolCapabilities builds every pool kind a Server can front and pins
// the capability struct New resolves for each — the DESIGN.md pool ×
// capability table, as a test — that each answers one k-NN the same way on
// every read shape (checkCandidatesMode), and that its summary rows cover what
// the pool holds. A local pool without the bounded k-NN walk is refused.
func TestPoolCapabilities(t *testing.T) {
	ds, tree := testDataset(t)
	one, err := shard.Over(tree)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.New(ds, shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	part, partRanges := partitionedMutable(t, ds, 0, 3, 2)

	type want struct {
		updates, liveSummary, batchRouting, validityView, distributed bool
	}
	cases := []struct {
		name string
		cfg  Config
		want want
	}{
		// One engine, so one row twice: the unsharded server (one shard over
		// the master tree, what bench reaches as parallel.New) carries a
		// router's NN bound exactly as the sharded one does.
		{"frozen, one shard", Config{Pool: one}, want{validityView: true}},
		{"frozen, one shard, cached", Config{Pool: one, Cache: qcache.New(qcache.Config{MaxBytes: 1 << 20})},
			want{validityView: true}},
		{"frozen, sharded", Config{Pool: sp}, want{validityView: true}},
		{"mutable monolithic", Config{Pool: monolithicMutable(t, ds, 4)},
			want{updates: true, liveSummary: true, validityView: true}},
		{"mutable partitioned", Config{Pool: part, Ranges: partRanges, NumRanges: 3},
			want{updates: true, liveSummary: true, validityView: true}},
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
		checkCandidatesMode(t, tc.name, srv, ds)
		if !tc.want.distributed {
			checkSummaryRows(t, tc.name, srv, ds.Len())
		}
	}

	if _, err := New(Config{Pool: struct{ Executor }{one}}); err == nil {
		t.Error("New accepted a local pool without the bounded k-NN walk")
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

// checkCandidatesMode: every pool kind answers one k-NN the same four ways
// at K 0, 1 and 8 — a single KindNN query in ids mode, the same in data
// mode, a ModeCandidates batch item (unbounded, and bounded by its own k-th
// distance in Eps) and the engine's k-NN: the same ids in the same distance
// order, records carrying the test dataset's geometry, and the 1-NN the
// first of the 8-NN. A window around the point, and a point at a corner of
// the nearest segment's MBR, answer their records the same way: data mode
// the exact ids', candidates mode the filter ids', each record the test
// dataset's segment; some of them must hold candidates their exact answer
// does not. Each shape is asked twice, so a cached
// server answers a miss and then a hit, and both must equal the engine's
// uncached answer. A lone MsgQuery in candidates mode is refused.
func checkCandidatesMode(t *testing.T, name string, srv *Server, ds *dataset.Dataset) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	ext := ds.Extent
	var before qcache.Stats
	if srv.qc != nil {
		before = srv.CacheStats()
	}
	widened := 0 // windows and points whose filter answer holds more than the exact one
	sameRecords := func(label string, recs []proto.Record, ids []uint32) {
		t.Helper()
		if len(recs) != len(ids) {
			t.Fatalf("%s: %d records, %d ids", label, len(recs), len(ids))
		}
		for j, rec := range recs {
			if rec.ID != ids[j] || rec.Seg != ds.Seg(rec.ID) {
				t.Fatalf("%s: record %d is %+v, want id %d at %v", label, j, rec, ids[j], ds.Seg(ids[j]))
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		pt := geom.Point{X: ext.Min.X + rng.Float64()*ext.Width(), Y: ext.Min.Y + rng.Float64()*ext.Height()}
		var nearest rtree.Neighbor
		for _, k := range []uint16{8, 1, 0} {
			label := fmt.Sprintf("%s: point %d K=%d", name, i, k)
			nbs, err := srv.eng.KNearestAppendUntil(nil, pt, max(int(k), 1), nil, deadline)
			if err != nil || len(nbs) != max(int(k), 1) {
				t.Fatalf("%s: engine k-NN answered %v, %v", label, nbs, err)
			}
			if k == 8 {
				nearest = nbs[0]
			} else if nbs[0] != nearest {
				t.Fatalf("%s: 1-NN %+v, the 8-NN's first is %+v", label, nbs[0], nearest)
			}
			for rep := 0; rep < 2; rep++ {
				ids := askQuery(t, label, srv, proto.QueryMsg{ID: 1, Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: k}, deadline)
				data := askQuery(t, label, srv, proto.QueryMsg{ID: 2, Kind: proto.KindNN, Mode: proto.ModeData, Point: pt, K: k}, deadline)
				if len(ids.IDs) != len(nbs) || len(data.Recs) != len(nbs) {
					t.Fatalf("%s: %d ids and %d records, the engine found %d", label, len(ids.IDs), len(data.Recs), len(nbs))
				}
				for j, nb := range nbs {
					if rec := data.Recs[j]; ids.IDs[j] != nb.ID || rec.ID != nb.ID || rec.Seg != ds.Seg(nb.ID) || rec.Seg != nb.Seg || rec.Seg.DistToPoint(pt) != nb.Dist {
						t.Fatalf("%s: rank %d id %d, record %+v; the engine found %+v", label, j, ids.IDs[j], rec, nb)
					}
				}
				for _, bound := range []float64{0, nbs[len(nbs)-1].Dist} {
					item := askQuery(t, label, srv, proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeCandidates, Point: pt, K: k, Eps: bound}, deadline)
					if len(item.IDs) != 0 {
						t.Fatalf("%s: candidates-mode item (bound %v) answered ids %v", label, bound, item.IDs)
					}
					sameRecords(fmt.Sprintf("%s: candidates-mode item (bound %v)", label, bound), item.Recs, ids.IDs)
				}
			}
		}
		// A window around the point, and a point at a corner of its nearest
		// segment's MBR, off the segment unless it is axis-parallel.
		corner := geom.Point{X: nearest.Seg.A.X, Y: nearest.Seg.B.Y}
		for _, q := range []proto.QueryMsg{
			{Kind: proto.KindRange, Window: geom.Rect{Min: pt, Max: pt}.Expand(ext.Width() / 20)},
			{Kind: proto.KindPoint, Point: corner},
		} {
			for rep := 0; rep < 2; rep++ {
				label := fmt.Sprintf("%s: point %d kind %d", name, i, q.Kind)
				ask := func(mode proto.Mode) proto.BatchItem {
					q.Mode = mode
					return askQuery(t, label, srv, q, deadline)
				}
				exact, filter := ask(proto.ModeIDs), ask(proto.ModeFilter)
				sameRecords(label+" data", ask(proto.ModeData).Recs, exact.IDs)
				sameRecords(label+" candidates", ask(proto.ModeCandidates).Recs, filter.IDs)
				if !slices.Equal(exact.IDs, filter.IDs) {
					widened++
				}
			}
		}
	}
	if widened == 0 {
		t.Fatalf("%s: no window or point had candidates beyond its exact answer, so the candidates checks prove nothing", name)
	}
	if srv.qc != nil {
		if st := srv.CacheStats(); st.Misses == before.Misses || st.Hits == before.Hits {
			t.Fatalf("%s: the k-NN shapes never missed and hit the cache: %+v", name, st)
		}
	}
	lone := &proto.QueryMsg{ID: 3, Kind: proto.KindNN, Mode: proto.ModeCandidates, K: 8}
	if em, ok := srv.execute(lone, srv.getScratch(), deadline).(*proto.ErrorMsg); !ok || em.Code != proto.CodeBadRequest {
		t.Fatalf("%s: a lone candidates-mode query answered %+v, want bad-request", name, em)
	}
}

// askQuery answers q through srv's request path — a single query, or a
// one-item batch for a ModeCandidates leg — and returns the answer as a batch
// item, copied out of the scratch the reply aliases.
func askQuery(t *testing.T, label string, srv *Server, q proto.QueryMsg, deadline time.Time) proto.BatchItem {
	t.Helper()
	var it proto.BatchItem
	switch r := srv.execute(wrapQuery(q), srv.getScratch(), deadline).(type) {
	case *proto.IDListMsg:
		it.IDs = slices.Clone(r.IDs)
	case *proto.DataListMsg:
		it.Recs = slices.Clone(r.Records)
	case *proto.BatchReplyMsg:
		it = r.Items[0]
		it.Recs, it.IDs = slices.Clone(it.Recs), slices.Clone(it.IDs)
	default:
		t.Fatalf("%s: %+v answered %+v", label, q, r)
	}
	if it.Err != 0 {
		t.Fatalf("%s: %+v failed: %s", label, q, it.Text)
	}
	return it
}

// wrapQuery is q as a request: a lone query, or a router's records leg — a
// ModeCandidates item — as the one-item batch it travels in.
func wrapQuery(q proto.QueryMsg) proto.Request {
	if q.Mode == proto.ModeCandidates {
		return &proto.BatchQueryMsg{ID: 4, Queries: []proto.QueryMsg{q}}
	}
	return &q
}

// batchOnlyPool routes batches but has no fallible query surface.
type batchOnlyPool struct{ Executor }

func (batchOnlyPool) RunQueryBatch([]proto.QueryMsg, []proto.BatchItem, time.Time) {}

// TestNewRejectsFanOutWithoutDeadlineSurface: a pool that fans out (it
// routes batches) must bring the fallible surface; New refuses to fall back
// to Executor methods that would swallow a failed leg.
func TestNewRejectsFanOutWithoutDeadlineSurface(t *testing.T) {
	_, tree := testDataset(t)
	par, err := shard.Over(tree)
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
// range, the whole key space, however many local shards)
// or a partitioned backend. Each reply validates, and a write moves the
// owning row's Version by one, its Items and MBR with it.
func TestLiveSummaryShapes(t *testing.T) {
	ds, _ := testDataset(t)
	mono := monolithicMutable(t, ds, 4)
	part, partRanges := partitionedMutable(t, ds, 0, 3, 2)
	mono16 := monolithicMutable(t, ds, 16)
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
		{"partitioned", part, Config{Pool: part, Ranges: partRanges, NumRanges: 3}, 3, partRanges, hold(t, ds, 0, 3, 2).Ranges[0].Items[0].ID},
		{"monolithic, 16 shards", mono16, Config{Pool: mono16}, 1, whole, 0},
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
		if _, _, owned, err := tc.pool.ApplyMove(uint32(ds.Len()+1), seg); err != nil || !owned {
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
