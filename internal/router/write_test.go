package router

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// The router is also a write-capable pool for the serve layer.
var _ serve.Updatable = (*Router)(nil)

// startMutableCluster is startCluster over updatable backends: each backend
// serves a mutable.Pool holding its shard.Hold share, keyed by the
// cluster-wide cuts so every process routes writes identically. Returns the
// per-backend pools for direct replica-state inspection, and the cuts.
func startMutableCluster(t testing.TB, ds *dataset.Dataset, nBackends, replicas int) (*testCluster, []*mutable.Pool, []uint64) {
	t.Helper()
	part := shard.Cut(ds.Items(), nBackends)
	tc := &testCluster{ds: ds, ranges: part.Ranges}
	var pools []*mutable.Pool
	for b := 0; b < nBackends; b++ {
		pools = append(pools, tc.serveMutable(t, hold(t, part, b, replicas)))
	}
	return tc, pools, part.Cuts
}

// serveMutable starts a backend serving a mutable.Pool over held, with the
// compactor off.
func (tc *testCluster) serveMutable(t testing.TB, held shard.Held) *mutable.Pool {
	t.Helper()
	pool, err := mutable.New(mutable.Config{
		Dataset:         tc.ds,
		Ranges:          held.Ranges,
		Cuts:            held.Cuts,
		Bounds:          held.Bounds,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatalf("backend %d mutable pool: %v", len(tc.addrs), err)
	}
	t.Cleanup(pool.Close)
	tc.serve(t, serve.Config{Pool: pool, Ranges: held.Rows(), NumRanges: len(held.Cuts)})
	return pool
}

// holdersOf counts which pools actually hold a fresh id at seg.
func holdersOf(pools []*mutable.Pool, id uint32, seg geom.Segment) []int {
	var out []int
	for b, p := range pools {
		if p.SegOf(id) == seg {
			out = append(out, b)
		}
	}
	return out
}

// segInRange finds a dataset segment whose write key lands in a range held
// by the wanted backend (pred over the global range index).
func segInRange(t *testing.T, ds *dataset.Dataset, cuts []uint64, pred func(rg int) bool) geom.Segment {
	t.Helper()
	q := shard.QuantizerFor(shard.BoundsOf(ds.Items()), 0)
	for id := 0; id < ds.Len(); id++ {
		seg := ds.Seg(uint32(id))
		if pred(shard.RangeForKey(cuts, shard.WriteKey(q, seg.MBR()))) {
			return seg
		}
	}
	t.Fatal("no dataset segment satisfies the range predicate")
	return geom.Segment{}
}

// TestRouterWriteReplication drives the write path across an R=2 cluster:
// a fresh id's first move (its insert) must land on BOTH holders of the
// owning range and nowhere else, a move across a range boundary must
// relocate the object to the new range's holders and evict it from the old
// ones, and a delete must clear every copy. Every write takes one leg per
// backend.
func TestRouterWriteReplication(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })

	q := shard.QuantizerFor(shard.BoundsOf(ds.Items()), 0)
	rangeOf := func(seg geom.Segment) int {
		return shard.RangeForKey(cuts, shard.WriteKey(q, seg.MBR()))
	}
	legs := hub.Reg.Counter("router_write_legs_total")
	lastLegs := legs.Value()
	legsPerWrite := func(label string) {
		t.Helper()
		if n := legs.Value() - lastLegs; n != uint64(len(tc.addrs)) {
			t.Fatalf("%s took %d write legs, want one per backend (%d)", label, n, len(tc.addrs))
		}
		lastLegs = legs.Value()
	}

	id := uint32(ds.Len() + 3)
	// onlyOn checks that id sits at seg on both holders of rg, on no other
	// backend, and in the routed answer over seg.
	onlyOn := func(label string, seg geom.Segment, rg int) {
		t.Helper()
		if hs := holdersOf(pools, id, seg); len(hs) != 2 {
			t.Fatalf("%s: id on %d backends %v, want the 2 holders of range %d", label, len(hs), hs, rg)
		}
		for b, p := range pools {
			if !r.snap().holds[b][rg] && p.SegOf(id) != (geom.Segment{}) {
				t.Fatalf("%s: backend %d holds a copy outside range %d's holders", label, b, rg)
			}
		}
		ids, err := r.RangeAppendUntil(nil, seg.MBR(), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !containsU32(ids, id) {
			t.Fatalf("%s: routed range over %v missing id %d", label, seg.MBR(), id)
		}
	}

	segA := ds.Seg(0) // geometry of a real item; the id is fresh
	epoch, existed, owned, err := r.ApplyMove(id, segA)
	if err != nil || existed || !owned {
		t.Fatalf("insert: epoch=%d existed=%v owned=%v err=%v", epoch, existed, owned, err)
	}
	legsPerWrite("insert")
	rgA := rangeOf(segA)
	onlyOn("insert", segA, rgA)
	if got, ok := routedRecord(t, r, id, segA.MBR()); !ok || got != segA {
		t.Fatalf("routed record after insert: %v (found %v), want %v", got, ok, segA)
	}

	// Move across a range boundary.
	segB := segInRange(t, ds, cuts, func(rg int) bool { return rg != rgA })
	rgB := rangeOf(segB)
	epoch, existed, owned, err = r.ApplyMove(id, segB)
	if err != nil || !existed || !owned {
		t.Fatalf("move: epoch=%d existed=%v owned=%v err=%v", epoch, existed, owned, err)
	}
	legsPerWrite("move")
	onlyOn("move", segB, rgB)

	// Delete clears every copy; re-delete is idempotent.
	if _, existed, _, err = r.ApplyDelete(id); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	legsPerWrite("delete")
	if hs := holdersOf(pools, id, segB); len(hs) != 0 {
		t.Fatalf("deleted id survives on backends %v", hs)
	}
	if _, existed, _, err = r.ApplyDelete(id); err != nil || existed {
		t.Fatalf("re-delete: existed=%v err=%v", existed, err)
	}
	legsPerWrite("re-delete")
	if got, ok := routedRecord(t, r, id, segB.MBR()); ok {
		t.Fatalf("routed record after delete: %v, want none", got)
	}
}

// routedRecord reads window w through r in data mode and returns the
// segment its record of id carries, false when the answer has none.
func routedRecord(t *testing.T, r *Router, id uint32, w geom.Rect) (geom.Segment, bool) {
	t.Helper()
	var segs []geom.Segment
	ids, err := r.SearchAppendUntil(nil, &segs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: w}, time.Time{})
	if err != nil {
		t.Fatalf("data-mode read of %v: %v", w, err)
	}
	if i := slices.Index(ids, id); i >= 0 {
		return segs[i], true
	}
	return geom.Segment{}, false
}

// TestReplicasAgreeAfterQuiescence is DESIGN §15's replica-agreement row:
// three R=2 mutable backends behind a router, every backend reachable, take
// a concurrent burst of routed moves (fresh ids' first writes among them)
// and deletes. Each id's writes come from one writer, in order, as one
// vehicle's position reports do. Once the burst has settled, one refresh
// later, every range's two holders report the same Version and Items, and
// the router reads no range divergent.
func TestReplicasAgreeAfterQuiescence(t *testing.T) {
	ds := clusterDataset(t)
	tc, _, _ := startMutableCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.RefreshInterval = -1
	})

	const writers, writes = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < writes; i++ {
				// Writer w owns the ids that are w mod writers, among the
				// dataset's first objects and the fresh ids beyond it.
				id := uint32(w + writers*rng.Intn(32))
				if rng.Intn(2) == 0 {
					id += uint32(ds.Len())
				}
				var err error
				if rng.Intn(4) == 0 {
					_, _, _, err = r.ApplyDelete(id)
				} else {
					_, _, _, err = r.ApplyMove(id, ds.Seg(uint32(rng.Intn(ds.Len()))))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("routed write: %v", err)
	}

	r.refreshOnce()
	rows := map[uint32][]proto.RangeInfo{}
	for b, addr := range tc.addrs {
		c, err := client.New(client.Config{Addr: addr, Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := c.Summary()
		c.Close()
		if err != nil {
			t.Fatalf("backend %d summary: %v", b, err)
		}
		for _, row := range sm.Ranges {
			rows[row.Index] = append(rows[row.Index], row)
		}
	}
	for rg := uint32(0); rg < 3; rg++ {
		hs := rows[rg]
		if len(hs) != 2 {
			t.Fatalf("range %d has %d holders reporting, want 2", rg, len(hs))
		}
		if hs[0].Version == 0 {
			t.Errorf("range %d took none of the burst's writes", rg)
		}
		if hs[0].Version != hs[1].Version || hs[0].Items != hs[1].Items {
			t.Errorf("range %d holders disagree after quiescence: version %d/%d, items %d/%d",
				rg, hs[0].Version, hs[1].Version, hs[0].Items, hs[1].Items)
		}
	}
	if d := hub.Reg.Gauge("router_ranges_divergent").Value(); d != 0 {
		t.Fatalf("router reads %v ranges divergent after quiescence", d)
	}
}

// TestRouterWriteDivergence kills one replica of an R=2 cluster: writes
// into its ranges still succeed through the surviving replica, and the
// router counts the divergence.
func TestRouterWriteDivergence(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 500 * time.Millisecond
	})

	tc.servers[0].Close()

	seg := segInRange(t, ds, cuts, func(rg int) bool { return r.snap().holds[0][rg] })
	id := uint32(ds.Len() + 11)
	_, _, owned, err := r.ApplyMove(id, seg)
	if err != nil || !owned {
		t.Fatalf("insert with one dead replica: owned=%v err=%v", owned, err)
	}
	if hs := holdersOf(pools, id, seg); len(hs) != 1 || hs[0] == 0 {
		t.Fatalf("insert landed on backends %v, want exactly the surviving replica", hs)
	}
	if v := hub.Reg.Counter("router_write_divergence_total").Value(); v == 0 {
		t.Fatal("no divergence recorded despite a dead replica")
	}
	if v := hub.Reg.Counter("router_write_unroutable_total").Value(); v != 0 {
		t.Fatalf("%d writes unroutable; R=2 must survive one backend", v)
	}

	// A broadcast delete also succeeds (and diverges on the dead backend).
	if _, existed, _, err := r.ApplyDelete(id); err != nil || !existed {
		t.Fatalf("delete with one dead backend: existed=%v err=%v", existed, err)
	}
}

// TestRouterWriteUnavailable loses the only holder of a range (R=1): a
// write into that range must fail CodeUnavailable, never land somewhere it
// does not belong — and never be acked because some other backend answered.
// A move of a live object into the range is not acked with Owned=false, and
// a delete of an object the lost backend held is not acked with
// Existed=false: the object would come back with its holder.
func TestRouterWriteUnavailable(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 1)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 300 * time.Millisecond
	})
	unroutable := hub.Reg.Counter("router_write_unroutable_total")
	// unavailable runs one write and checks that it failed CodeUnavailable
	// and counted as unroutable.
	unavailable := func(label string, write func() (uint64, bool, bool, error)) {
		t.Helper()
		before := unroutable.Value()
		epoch, existed, owned, err := write()
		var coded interface{ ErrCode() proto.ErrCode }
		if !errors.As(err, &coded) || coded.ErrCode() != proto.CodeUnavailable {
			t.Errorf("%s: epoch=%d existed=%v owned=%v err=%v, want CodeUnavailable", label, epoch, existed, owned, err)
		}
		if n := unroutable.Value() - before; n != 1 {
			t.Errorf("%s: %d unroutable writes recorded, want 1", label, n)
		}
	}

	seg := segInRange(t, ds, cuts, func(rg int) bool { return rg == 1 })
	idY := uint32(ds.Len() + 18)
	if _, _, owned, err := r.ApplyMove(idY, seg); err != nil || !owned {
		t.Fatalf("insert of Y into range 1: owned=%v err=%v", owned, err)
	}
	tc.servers[1].Close()

	id := uint32(ds.Len() + 19)
	unavailable("insert into the lost range", func() (uint64, bool, bool, error) { return r.ApplyMove(id, seg) })
	if hs := holdersOf(pools, id, seg); len(hs) != 0 {
		t.Fatalf("unroutable write still landed on backends %v", hs)
	}
	idX := tc.ranges[0].Items[0].ID
	unavailable("move of a live object into the lost range", func() (uint64, bool, bool, error) { return r.ApplyMove(idX, seg) })
	unavailable("delete of Y, held only by the lost backend", func() (uint64, bool, bool, error) { return r.ApplyDelete(idY) })
}

// TestRouterWriteInvalidatesAcrossRouters: a router's result cache must stop
// answering an object at a position it left, even when the object got there
// through another router. Router B moves dataset object X into a window W
// that only range j's extent meets; router A, behind a serve.Server with a
// result cache, refreshes and caches W with X in it, then moves X on into a
// third range. Only the backends know X was in range j — the holders of j
// answer A's move that they had a copy — so the next read of W through A
// must not find X.
//
// A first puts X at P, beyond the map's right edge, where no range's items
// reach and whose range is not j, so that after B's move and A's refresh
// nothing but the holders' answers ties X to range j.
func TestRouterWriteInvalidatesAcrossRouters(t *testing.T) {
	ds := clusterDataset(t)
	tc, _, cuts := startMutableCluster(t, ds, 3, 2)
	a := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })
	b := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })

	qc := qcache.New(qcache.Config{MaxBytes: 1 << 20, CellSize: 64})
	srv, c := dial(t, serve.Config{Pool: a, Cache: qc}, 1)

	q := shard.QuantizerFor(shard.BoundsOf(ds.Items()), 0)
	rangeOf := func(seg geom.Segment) int {
		return shard.RangeForKey(cuts, shard.WriteKey(q, seg.MBR()))
	}
	// Beyond the right edge a position keys into the range owning that edge
	// of the curve at its height, and no range's items reach it.
	beyond := func(f float64) geom.Segment {
		pt := geom.Point{X: ds.Extent.Max.X + 5000, Y: ds.Extent.Min.Y + f*ds.Extent.Height()}
		return geom.Segment{A: pt, B: geom.Point{X: pt.X + 30, Y: pt.Y + 30}}
	}
	p, to := beyond(0.9), beyond(0.1)
	j, third := rangeOf(to), rangeOf(p)
	if third == j {
		t.Fatalf("P and X's target in W both key into range %d", j)
	}
	w := p.MBR().Union(to.MBR())
	x := tc.ranges[3-j-third].Items[0].ID // X's dataset range is neither
	away := segInRange(t, ds, cuts, func(rg int) bool { return rg == third })

	if _, existed, owned, err := a.ApplyMove(x, p); err != nil || !existed || !owned {
		t.Fatalf("move of X to P through A: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if _, existed, owned, err := b.ApplyMove(x, to); err != nil || !existed || !owned {
		t.Fatalf("move of X into W through B: existed=%v owned=%v err=%v", existed, owned, err)
	}
	a.refreshOnce()
	_, super, _ := qcache.RangeKey(w, qc.CellSize(), false)
	for rg, s := 0, a.snap(); rg < s.numRanges; rg++ {
		if s.eff(rg).Intersects(super) != (rg == j) {
			t.Fatalf("after A's refresh, range %d's extent %v meets W's cached window %v: %v; want only range %d",
				rg, s.eff(rg), super, !(rg == j), j)
		}
	}
	read := func() []uint32 {
		t.Helper()
		ids, err := c.RangeIDs(w)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if !containsU32(read(), x) {
		t.Fatal("read of W through A misses X, moved there through B")
	}
	hits := srv.CacheStats().Hits
	if !containsU32(read(), x) || srv.CacheStats().Hits != hits+1 {
		t.Fatalf("second read of W through A: want a cache hit containing X (hits %d -> %d)", hits, srv.CacheStats().Hits)
	}

	if _, existed, owned, err := a.ApplyMove(x, away); err != nil || !existed || !owned {
		t.Fatalf("move of X out of W through A: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if containsU32(read(), x) {
		t.Fatalf("read of W through A still finds X after A acked its move out of range %d", j)
	}
}

func containsU32(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
