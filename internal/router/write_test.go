package router

import (
	"errors"
	"net"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve"
	"mobispatial/internal/shard"
)

// The router is also a write-capable pool for the serve layer.
var _ serve.Updatable = (*Router)(nil)

// startMutableCluster is startCluster over updatable backends: each backend
// serves a mutable.Pool holding its ReplicaRanges, sharing the cluster-wide
// cuts so every process routes writes identically, and repartitioning under
// ad. Returns the per-backend pools for direct replica-state inspection, and
// the cuts.
func startMutableCluster(t testing.TB, ds *dataset.Dataset, nBackends, replicas int, ad mutable.AdaptiveConfig) (*testCluster, []*mutable.Pool, []uint64) {
	t.Helper()
	ranges, bounds := shard.PartitionHilbert(ds.Items(), nBackends, 0)
	if len(ranges) != nBackends {
		t.Fatalf("partition: got %d ranges, want %d", len(ranges), nBackends)
	}
	cuts := make([]uint64, len(ranges))
	for i, rg := range ranges {
		cuts[i] = rg.Lo
	}
	tc := &testCluster{ds: ds, ranges: ranges}
	var pools []*mutable.Pool
	for b := 0; b < nBackends; b++ {
		idxs, err := shard.ReplicaRanges(b, nBackends, replicas)
		if err != nil {
			t.Fatalf("replica ranges: %v", err)
		}
		var held []shard.Range
		var infos []proto.RangeInfo
		for _, ri := range idxs {
			rg := ranges[ri]
			held = append(held, rg)
			infos = append(infos, proto.RangeInfo{
				Index: uint32(rg.Index),
				Items: uint32(len(rg.Items)),
				Lo:    rg.Lo,
				Hi:    rg.Hi,
				MBR:   rg.MBR,
			})
		}
		pool, err := mutable.New(mutable.Config{
			Dataset:         ds,
			Ranges:          held,
			Cuts:            cuts,
			Bounds:          bounds,
			CompactInterval: -1,
			Adaptive:        ad,
		})
		if err != nil {
			t.Fatalf("backend %d mutable pool: %v", b, err)
		}
		t.Cleanup(func() { pool.Close() })
		srv, err := serve.New(serve.Config{Pool: pool, Ranges: infos, NumRanges: nBackends})
		if err != nil {
			t.Fatalf("backend %d server: %v", b, err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("backend %d listen: %v", b, err)
		}
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		tc.addrs = append(tc.addrs, lis.Addr().String())
		tc.servers = append(tc.servers, srv)
		pools = append(pools, pool)
	}
	return tc, pools, cuts
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
// an insert must land on BOTH holders of the owning range and nowhere else,
// a move across a range boundary must relocate the object to the new
// range's holders and evict it from the old ones, and a delete must clear
// every copy.
func TestRouterWriteReplication(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 2, mutable.AdaptiveConfig{})
	r := newRouter(t, tc, nil)

	q := shard.QuantizerFor(shard.BoundsOf(ds.Items()), 0)
	rangeOf := func(seg geom.Segment) int {
		return shard.RangeForKey(cuts, shard.WriteKey(q, seg.MBR()))
	}

	id := uint32(ds.Len() + 3)
	segA := ds.Seg(0) // geometry of a real item; the id is fresh
	epoch, existed, owned, err := r.ApplyInsert(id, segA)
	if err != nil || existed || !owned {
		t.Fatalf("insert: epoch=%d existed=%v owned=%v err=%v", epoch, existed, owned, err)
	}
	rgA := rangeOf(segA)
	hs := holdersOf(pools, id, segA)
	if len(hs) != 2 {
		t.Fatalf("inserted id on %d backends %v, want the 2 holders of range %d", len(hs), hs, rgA)
	}
	for _, b := range hs {
		if !r.snap().holds[b][rgA] {
			t.Fatalf("backend %d holds the inserted id but not range %d", b, rgA)
		}
	}
	if got := r.SegOf(id); got != segA {
		t.Fatalf("router SegOf after insert: %v, want %v", got, segA)
	}
	ids, err := r.RangeAppendUntil(nil, segA.MBR(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsU32(ids, id) {
		t.Fatalf("routed range over %v missing inserted id %d", segA.MBR(), id)
	}

	// Move across a range boundary.
	segB := segInRange(t, ds, cuts, func(rg int) bool { return rg != rgA })
	rgB := rangeOf(segB)
	epoch, existed, owned, err = r.ApplyMove(id, segB)
	if err != nil || !existed || !owned {
		t.Fatalf("move: epoch=%d existed=%v owned=%v err=%v", epoch, existed, owned, err)
	}
	hs = holdersOf(pools, id, segB)
	if len(hs) != 2 {
		t.Fatalf("moved id on %d backends %v, want the 2 holders of range %d", len(hs), hs, rgB)
	}
	for b, p := range pools {
		if !r.snap().holds[b][rgB] && p.SegOf(id) != (geom.Segment{}) {
			t.Fatalf("backend %d kept a stale copy after the move out of its ranges", b)
		}
	}
	ids, err = r.RangeAppendUntil(ids[:0], segB.MBR(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsU32(ids, id) {
		t.Fatalf("routed range over %v missing moved id %d", segB.MBR(), id)
	}

	// Delete clears every copy; re-delete is idempotent.
	if _, existed, _, err = r.ApplyDelete(id); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if hs = holdersOf(pools, id, segB); len(hs) != 0 {
		t.Fatalf("deleted id survives on backends %v", hs)
	}
	if _, existed, _, err = r.ApplyDelete(id); err != nil || existed {
		t.Fatalf("re-delete: existed=%v err=%v", existed, err)
	}
	if got := r.SegOf(id); got != (geom.Segment{}) {
		t.Fatalf("router SegOf after delete: %v, want zero", got)
	}
}

// TestRouterWriteDivergence kills one replica of an R=2 cluster: writes
// into its ranges still succeed through the surviving replica, and the
// router counts the divergence.
func TestRouterWriteDivergence(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 2, mutable.AdaptiveConfig{})
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 500 * time.Millisecond
	})

	tc.servers[0].Close()

	seg := segInRange(t, ds, cuts, func(rg int) bool { return r.snap().holds[0][rg] })
	id := uint32(ds.Len() + 11)
	_, _, owned, err := r.ApplyInsert(id, seg)
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
// write owned by that range must fail CodeUnavailable, never land
// somewhere it does not belong.
func TestRouterWriteUnavailable(t *testing.T) {
	ds := clusterDataset(t)
	tc, pools, cuts := startMutableCluster(t, ds, 3, 1, mutable.AdaptiveConfig{})
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 300 * time.Millisecond
	})

	tc.servers[1].Close()

	seg := segInRange(t, ds, cuts, func(rg int) bool { return rg == 1 })
	id := uint32(ds.Len() + 19)
	_, _, _, err := r.ApplyInsert(id, seg)
	var coded interface{ ErrCode() proto.ErrCode }
	if !errors.As(err, &coded) || coded.ErrCode() != proto.CodeUnavailable {
		t.Fatalf("write into a lost range: err=%v, want CodeUnavailable", err)
	}
	if hs := holdersOf(pools, id, seg); len(hs) != 0 {
		t.Fatalf("unroutable write still landed on backends %v", hs)
	}
	if v := hub.Reg.Counter("router_write_unroutable_total").Value(); v == 0 {
		t.Fatal("no unroutable write recorded")
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
