package router

// batch_test.go pins the locality-aware batch path (batch.go): a client
// batch through a router-fronted server must reach each owning backend as
// ONE MsgBatchQuery leg (the wire-counter acceptance check), answer exactly
// what the monolithic truth answers, and survive a dead backend by
// re-covering its ranges inside the same call.

import (
	"math/rand"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve"
)

var _ serve.BatchExecutor = (*Router)(nil)

// mixedBatch builds a batch of range/filter/point sub-queries spread over
// the extent, led by one full-extent window so every backend owns work.
func mixedBatch(rng *rand.Rand, extent geom.Rect, n int) []proto.QueryMsg {
	qs := []proto.QueryMsg{{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: extent}}
	for len(qs) < n {
		switch len(qs) % 3 {
		case 0:
			qs = append(qs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs,
				Window: randWindow(rng, extent, 0.02+0.2*rng.Float64())})
		case 1:
			qs = append(qs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter,
				Window: randWindow(rng, extent, 0.02+0.2*rng.Float64())})
		default:
			qs = append(qs, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Eps: 25,
				Point: geom.Point{
					X: extent.Min.X + rng.Float64()*extent.Width(),
					Y: extent.Min.Y + rng.Float64()*extent.Height(),
				}})
		}
	}
	return qs
}

// checkBatchItem verifies one sub-query's id answer against the monolithic
// truth pool.
func checkBatchItem(t *testing.T, pool interface {
	RangeAppend([]uint32, geom.Rect) []uint32
	FilterRangeAppend([]uint32, geom.Rect) []uint32
	PointAppend([]uint32, geom.Point, float64) []uint32
}, i int, q *proto.QueryMsg, got []uint32) {
	t.Helper()
	switch {
	case q.Kind == proto.KindRange && q.Mode == proto.ModeFilter:
		sameIDs(t, "batch filter", got, pool.FilterRangeAppend(nil, q.Window))
	case q.Kind == proto.KindRange:
		sameIDs(t, "batch range", got, pool.RangeAppend(nil, q.Window))
	case q.Kind == proto.KindPoint:
		sameIDs(t, "batch point", got, pool.PointAppend(nil, q.Point, q.Eps))
	default:
		t.Fatalf("item %d: unexpected kind %v", i, q.Kind)
	}
}

// TestRouterBatchOneLegPerBackend is the acceptance wire-counter check: a
// client batch into a router-fronted server must cost each owning backend
// exactly ONE MsgBatchQuery, however many sub-queries it answers. R=1 makes
// ownership deterministic, and the full-extent lead query forces every
// backend to own work.
func TestRouterBatchOneLegPerBackend(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 1)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) { cfg.Obs = hub })

	_, c := dial(t, serve.Config{Pool: r}, 1)

	rng := rand.New(rand.NewSource(61))
	qs := mixedBatch(rng, ds.Extent, 18)

	before := make([]uint64, len(tc.servers))
	for b, srv := range tc.servers {
		before[b] = srv.Stats().Batches
	}
	res, err := c.QueryBatch(qs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for b, srv := range tc.servers {
		if got := srv.Stats().Batches - before[b]; got != 1 {
			t.Fatalf("backend %d served %d batch legs for one %d-query client batch, want exactly 1",
				b, got, len(qs))
		}
	}
	for i := range qs {
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
		checkBatchItem(t, pool, i, &qs[i], res[i].IDs)
	}
	if v := hub.Reg.Counter("router_batches_total").Value(); v != 1 {
		t.Fatalf("router_batches_total = %d, want 1", v)
	}
	if v := hub.Reg.Counter("router_batch_legs_total").Value(); v != uint64(len(tc.servers)) {
		t.Fatalf("router_batch_legs_total = %d, want %d (one per backend)", v, len(tc.servers))
	}
	if v := hub.Reg.Counter("router_failover_total").Value(); v != 0 {
		t.Fatalf("healthy cluster took %d failover rounds", v)
	}
}

// TestRouterRunQueryBatchEquivalence drives the BatchExecutor surface
// directly: mixed kinds and modes against an R=2 cluster (multi-holder
// covers exercise the sorted-dedup stitch), NN sub-queries riding along,
// and a slot the serve layer pre-rejected that must come back untouched.
func TestRouterRunQueryBatchEquivalence(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	rng := rand.New(rand.NewSource(62))
	for round := 0; round < 4; round++ {
		qs := mixedBatch(rng, ds.Extent, 12)
		nnPt := geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()}
		qs = append(qs, proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: nnPt, K: 5})
		qs = append(qs, proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: nnPt, K: 4000})
		items := make([]proto.BatchItem, len(qs))
		rejected := len(qs) - 1 // the serve layer pre-rejects over-limit k
		items[rejected].Err = proto.CodeBadRequest

		r.RunQueryBatch(qs, items, time.Time{})

		for i := range qs {
			if i == rejected {
				if items[i].Err != proto.CodeBadRequest || len(items[i].IDs) != 0 {
					t.Fatalf("round %d: pre-rejected slot was touched: %+v", round, items[i])
				}
				continue
			}
			if items[i].Err != 0 {
				t.Fatalf("round %d item %d: code %d (%s)", round, i, items[i].Err, items[i].Text)
			}
			if qs[i].Kind == proto.KindNN {
				want, _ := pool.KNearestAppend(nil, qs[i].Point, int(qs[i].K), nil)
				if len(items[i].IDs) != len(want) {
					t.Fatalf("round %d nn: %d ids, want %d", round, len(items[i].IDs), len(want))
				}
				for j, id := range items[i].IDs {
					if d := ds.Seg(id).DistToPoint(qs[i].Point); d != want[j].Dist {
						t.Fatalf("round %d nn rank %d: id %d at dist %v, truth dist %v",
							round, j, id, d, want[j].Dist)
					}
				}
				continue
			}
			checkBatchItem(t, pool, i, &qs[i], items[i].IDs)
		}
	}
}

// TestRouterBatchFallbackOnDeadBackend kills one backend of an R=2 cluster:
// every sub-query must still answer correctly (grouped legs into the corpse
// fail, their ranges are re-covered from the replicas), with the failovers
// visible in the router's counter.
func TestRouterBatchFallbackOnDeadBackend(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 500 * time.Millisecond
	})

	tc.servers[1].Close()

	rng := rand.New(rand.NewSource(63))
	for round := 0; round < 8; round++ {
		qs := mixedBatch(rng, ds.Extent, 10)
		items := make([]proto.BatchItem, len(qs))
		r.RunQueryBatch(qs, items, time.Time{})
		for i := range qs {
			if items[i].Err != 0 {
				t.Fatalf("round %d item %d during outage: code %d (%s)",
					round, i, items[i].Err, items[i].Text)
			}
			checkBatchItem(t, pool, i, &qs[i], items[i].IDs)
		}
	}
	if v := hub.Reg.Counter("router_failover_total").Value(); v == 0 {
		t.Fatal("no failover recorded despite a dead backend")
	}
	if v := hub.Reg.Counter("router_unroutable_total").Value(); v != 0 {
		t.Fatalf("%d sub-queries unroutable; R=2 must survive one backend", v)
	}
}

// TestRouterBatchFailoverInsideOneCall pins the single failover tier: a
// backend that dies with its breaker still closed is picked for a leg, the
// leg fails, and the same RunQueryBatch call answers its sub-queries from
// the replicas with grouped legs only — at most one more MsgBatchQuery per
// healthy backend, and not one per-item MsgQuery.
func TestRouterBatchFailoverInsideOneCall(t *testing.T) {
	ds := clusterDataset(t)
	pool := truthPool(t, ds)
	tc := startCluster(t, ds, 3, 2)
	hub := obs.NewHub()
	r := newRouter(t, tc, func(cfg *Config) {
		cfg.Obs = hub
		cfg.LegTimeout = 500 * time.Millisecond
		cfg.RefreshInterval = -1 // summary polls would count as served requests
	})
	failovers := hub.Reg.Counter("router_failover_total")

	const dead = 1
	tc.servers[dead].Close()

	rng := rand.New(rand.NewSource(65))
	failedOver := 0
	for round := 0; round < 8; round++ {
		qs := mixedBatch(rng, ds.Extent, 16)
		items := make([]proto.BatchItem, len(qs))
		var served, batches [3]uint64
		for b, srv := range tc.servers {
			served[b], batches[b] = srv.Stats().Served, srv.Stats().Batches
		}
		before := failovers.Value()

		r.RunQueryBatch(qs, items, time.Time{})

		for i := range qs {
			if items[i].Err != 0 {
				t.Fatalf("round %d item %d: code %d (%s)", round, i, items[i].Err, items[i].Text)
			}
			checkBatchItem(t, pool, i, &qs[i], items[i].IDs)
		}
		lost := failovers.Value() - before
		failedOver += int(lost)
		for b, srv := range tc.servers {
			if b == dead {
				continue
			}
			st := srv.Stats()
			if legs := st.Batches - batches[b]; legs > 1+lost {
				t.Fatalf("round %d: backend %d served %d batch legs in a call with %d failover rounds", round, b, legs, lost)
			}
			if other := (st.Served - served[b]) - (st.Batches - batches[b]); other != 0 {
				t.Fatalf("round %d: backend %d served %d non-batch requests; the per-item tier is gone", round, b, other)
			}
		}
	}
	if failedOver == 0 {
		t.Fatal("the dead backend was never picked for a leg; the test exercised nothing")
	}
	if v := hub.Reg.Counter("router_unroutable_total").Value(); v != 0 {
		t.Fatalf("%d sub-queries unroutable; R=2 must survive one backend", v)
	}
}
