package mutable

// replica_test.go pins what a pool holding a subset of the cluster's ranges
// advertises and owns: one summary row per held range whose version counts
// the writes applied to it, so replicas that applied the same writes agree
// whatever else they did, and writes keyed outside the held ranges evicted.

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/router"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// clusterBackend builds backend be of an n-range cluster at R=replicas the
// way mqserve -partition be/n -replicas R -mutable does: one shard per held
// range, keyed by the cluster-wide cuts. hub (nil for none) takes its
// mutable_* metrics.
func clusterBackend(t testing.TB, ds *dataset.Dataset, be, n, replicas int, hub *obs.Hub) *Pool {
	t.Helper()
	held, err := shard.Cut(ds.Items(), n).Hold(be, replicas)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Dataset: ds, Ranges: held.Ranges, Cuts: held.Cuts, Bounds: held.Bounds, CompactInterval: -1, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// rowOf returns p's summary row for cluster range g.
func rowOf(t *testing.T, p *Pool, g int) proto.RangeInfo {
	t.Helper()
	rows, _ := p.SummaryRanges(nil)
	for _, r := range rows {
		if int(r.Index) == g {
			return r
		}
	}
	t.Fatalf("no summary row for range %d in %+v", g, rows)
	return proto.RangeInfo{}
}

// shardOfRange returns the position of the first shard of p sitting in
// cluster range g.
func shardOfRange(p *Pool, g int) int {
	for i, s := range p.shards {
		if s.rg == g {
			return i
		}
	}
	return -1
}

// TestReplicaRangeVersionsAgree: backends 0 and 1 of a 3-range R=2 layout
// share range 0. Both apply the same move to an object there; then one of
// them compacts. The shared range's rows must still agree on Version and
// Items — a row's version counts writes, not compactions — and a router
// polling both must not mark the range divergent.
func TestReplicaRangeVersionsAgree(t *testing.T) {
	ds := dataset.NYC()
	ranges, _ := shard.PartitionHilbert(ds.Items(), 3, 0)
	id, to := ranges[0].Items[0].ID, ds.Seg(ranges[0].Items[1].ID)
	t.Run("compaction", func(t *testing.T) {
		a := clusterBackend(t, ds, 0, 3, 2, nil)
		b := clusterBackend(t, ds, 1, 3, 2, nil)
		for _, p := range []*Pool{a, b} {
			if _, existed, owned, err := p.ApplyMove(id, to); err != nil || !existed || !owned {
				t.Fatalf("move: existed=%v owned=%v err=%v", existed, owned, err)
			}
			if v := rowOf(t, p, 0).Version; v != 1 {
				t.Fatalf("range 0 version %d after one write, want 1", v)
			}
		}
		if a.ForceCompact(); a.Epoch(shardOfRange(a, 0)) != 1 {
			t.Fatal("compaction did not run")
		}
		ra, rb := rowOf(t, a, 0), rowOf(t, b, 0)
		if ra.Version != rb.Version || ra.Items != rb.Items {
			t.Fatalf("replicas of range 0 disagree after a compaction: version %d/%d, items %d/%d",
				ra.Version, rb.Version, ra.Items, rb.Items)
		}

		// The same two replicas behind a router: every range has a holder
		// (0: both, 1: b, 2: a), and none may read divergent.
		hub := obs.NewHub()
		r, err := router.New(router.Config{
			Backends:        []string{serveBackend(t, a), serveBackend(t, b)},
			Dataset:         ds,
			RefreshInterval: 10 * time.Millisecond,
			RegisterTimeout: 15 * time.Second,
			Obs:             hub,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		refreshes := hub.Reg.Counter("router_refresh_total")
		for deadline := time.Now().Add(10 * time.Second); refreshes.Value() == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("router never refreshed")
			}
		}
		if d := hub.Reg.Gauge("router_ranges_divergent").Value(); d != 0 {
			t.Fatalf("router reads %v divergent ranges after one replica's compaction", d)
		}
	})
}

// serveBackend serves p on a loopback port as a cluster backend.
func serveBackend(t *testing.T, p *Pool) string {
	t.Helper()
	rows, n := p.SummaryRanges(nil)
	srv, err := serve.New(serve.Config{Pool: p, Ranges: rows, NumRanges: n})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

// TestPartitionedPoolEvictsForeignWrites: a pool holding ranges {0, 2} of 3
// has every shard in a held range, evicts writes keyed into range 1, and
// advertises the same two rows throughout.
func TestPartitionedPoolEvictsForeignWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randomDataset(rng, 3000)
	p := clusterBackend(t, ds, 0, 3, 2, nil)
	ranges, _ := shard.PartitionHilbert(ds.Items(), 3, 0)
	rows0, num := p.SummaryRanges(nil)
	if num != 3 || len(rows0) != 2 || rows0[0].Index != 0 || rows0[1].Index != 2 {
		t.Fatalf("summary %+v of %d, want rows for ranges 0 and 2 of 3", rows0, num)
	}
	for i, s := range p.shards {
		if s.rg != 0 && s.rg != 2 {
			t.Fatalf("shard %d sits in range %d, which the pool does not hold", i, s.rg)
		}
	}

	// Writes keyed into range 1 are not this pool's: a fresh id is refused,
	// a held object moving there is evicted.
	foreign := ds.Seg(ranges[1].Items[0].ID)
	if _, existed, owned, err := p.ApplyMove(uint32(ds.Len()), foreign); err != nil || existed || owned {
		t.Fatalf("insert into range 1: existed=%v owned=%v err=%v", existed, owned, err)
	}
	n := p.Len()
	mover := ranges[0].Items[0].ID
	if _, existed, owned, err := p.ApplyMove(mover, foreign); err != nil || !existed || owned {
		t.Fatalf("move into range 1: existed=%v owned=%v err=%v", existed, owned, err)
	}
	if p.Len() != n-1 || p.ids.owner(mover) != nil {
		t.Fatalf("moved-out object still held: Len %d -> %d", n, p.Len())
	}
	if containsID(filterRange(p, nil, foreign.MBR()), mover) {
		t.Fatal("moved-out object still visible")
	}
	rows, num := p.SummaryRanges(nil)
	if num != 3 || len(rows) != 2 {
		t.Fatalf("after the writes: %d rows of %d, want 2 of 3", len(rows), num)
	}
	for i, r := range rows {
		if r.Index != rows0[i].Index || r.Lo != rows0[i].Lo || r.Hi != rows0[i].Hi {
			t.Fatalf("after the writes: row %d = %d [%d, %d], was %d [%d, %d]", i,
				r.Index, r.Lo, r.Hi, rows0[i].Index, rows0[i].Lo, rows0[i].Hi)
		}
	}
}

// TestUpsertMeteredByWhatItDid: a pool meters an upsert by what it did, once
// ownership is decided. On a pool holding ranges {0, 2} of 3, served over
// the wire, a write keyed into range 1 counts only as not owned — a fresh id
// refused and a held object evicted alike; a fresh id's first owned write
// counts one insert; and a later owned write counts one move, whichever
// client call sent it.
func TestUpsertMeteredByWhatItDid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := randomDataset(rng, 3000)
	hub := obs.NewHub()
	p := clusterBackend(t, ds, 0, 3, 2, hub)
	c, err := client.New(client.Config{Addr: serveBackend(t, p), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ranges, _ := shard.PartitionHilbert(ds.Items(), 3, 0)
	foreign, local := ds.Seg(ranges[1].Items[0].ID), ds.Seg(ranges[2].Items[0].ID)
	fresh, held := uint32(ds.Len()), ranges[0].Items[0].ID
	inserts := hub.Reg.Counter("mutable_inserts_total")
	moves := hub.Reg.Counter("mutable_moves_total")
	notOwned := hub.Reg.Counter("mutable_not_owned_total")
	for _, step := range []struct {
		label                string
		write                func(uint32, geom.Segment) (client.UpdateAck, error)
		id                   uint32
		seg                  geom.Segment
		owned                bool
		dInsert, dMove, dNot uint64
	}{
		{"foreign write of a fresh id", c.Move, fresh, foreign, false, 0, 0, 1},
		{"foreign write of a held object", c.Move, held, foreign, false, 0, 0, 1},
		{"first owned write, by Insert", c.Insert, fresh, local, true, 1, 0, 0},
		{"second owned write, by Insert", c.Insert, fresh, local, true, 0, 1, 0},
		{"third owned write, by Move", c.Move, fresh, ds.Seg(ranges[0].Items[1].ID), true, 0, 1, 0},
		{"first owned write, by Move", c.Move, fresh + 1, local, true, 1, 0, 0},
	} {
		i0, m0, n0 := inserts.Value(), moves.Value(), notOwned.Value()
		ack, err := step.write(step.id, step.seg)
		if err != nil || ack.Owned != step.owned {
			t.Fatalf("%s: ack %+v err %v, want owned=%v", step.label, ack, err, step.owned)
		}
		if di, dm, dn := inserts.Value()-i0, moves.Value()-m0, notOwned.Value()-n0; di != step.dInsert || dm != step.dMove || dn != step.dNot {
			t.Errorf("%s: counted %d inserts, %d moves, %d not owned; want %d, %d, %d",
				step.label, di, dm, dn, step.dInsert, step.dMove, step.dNot)
		}
	}
}
