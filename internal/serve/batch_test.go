package serve

import (
	"math/rand"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// TestBatchQueriesMatchPool answers a mixed batch over the wire and checks
// every item against direct pool execution.
func TestBatchQueriesMatchPool(t *testing.T) {
	ds, pool, srv, addr := testWorld(t, nil)
	c := newClient(t, addr, 2)
	ext := ds.Extent
	rng := rand.New(rand.NewSource(21))

	for round := 0; round < 10; round++ {
		var qs []proto.QueryMsg
		n := 1 + rng.Intn(16)
		for i := 0; i < n; i++ {
			cx := ext.Min.X + rng.Float64()*ext.Width()
			cy := ext.Min.Y + rng.Float64()*ext.Height()
			pt := geom.Point{X: cx, Y: cy}
			half := 100 + rng.Float64()*1200
			w := geom.Rect{
				Min: geom.Point{X: cx - half, Y: cy - half},
				Max: geom.Point{X: cx + half, Y: cy + half},
			}
			switch i % 4 {
			case 0:
				qs = append(qs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w})
			case 1:
				qs = append(qs, proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt})
			case 2:
				qs = append(qs, proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w})
			case 3:
				qs = append(qs, proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: pt, K: 3})
			}
		}
		res, err := c.QueryBatch(qs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res) != len(qs) {
			t.Fatalf("round %d: %d results for %d queries", round, len(res), len(qs))
		}
		for i, q := range qs {
			if res[i].Err != nil {
				t.Fatalf("round %d item %d: %v", round, i, res[i].Err)
			}
			switch i % 4 {
			case 0:
				if want := pool.RangeAppend(nil, q.Window); !sameIDs(res[i].IDs, want) {
					t.Fatalf("round %d item %d: range mismatch", round, i)
				}
			case 1:
				if want := pool.PointAppend(nil, q.Point, DefaultPointEps); !sameIDs(res[i].IDs, want) {
					t.Fatalf("round %d item %d: point mismatch", round, i)
				}
			case 2:
				if want := pool.FilterRangeAppend(nil, q.Window); !sameIDs(res[i].IDs, want) {
					t.Fatalf("round %d item %d: filter mismatch", round, i)
				}
			case 3:
				nbs, _ := pool.KNearestAppend(nil, q.Point, 3, nil)
				if len(res[i].Records) != len(nbs) {
					t.Fatalf("round %d item %d: knn got %d recs want %d", round, i, len(res[i].Records), len(nbs))
				}
				for j, nb := range nbs {
					if res[i].Records[j].ID != nb.ID {
						t.Fatalf("round %d item %d: knn rec %d id %d want %d", round, i, j, res[i].Records[j].ID, nb.ID)
					}
					if res[i].Records[j].Seg != ds.Seg(nb.ID) {
						t.Fatalf("round %d item %d: knn rec %d segment mismatch", round, i, j)
					}
				}
			}
		}
	}

	st := srv.Stats()
	if st.Batches < 10 {
		t.Fatalf("server counted %d batches, want >= 10", st.Batches)
	}
	if st.BatchQueries == 0 || st.BatchQueries < st.Batches {
		t.Fatalf("implausible batch query count %d", st.BatchQueries)
	}
}

// TestBatchPerItemError checks that one bad query mid-batch fails only its
// own item.
func TestBatchPerItemError(t *testing.T) {
	ds, pool, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 500, Y: center.Y - 500},
		Max: geom.Point{X: center.X + 500, Y: center.Y + 500},
	}
	qs := []proto.QueryMsg{
		{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
		{Kind: proto.KindNN, Mode: proto.ModeIDs, Point: center, K: 2000}, // over maxKNN
		{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
	}
	res, err := c.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Err == nil {
		t.Fatal("over-limit k answered without error")
	}
	if em, ok := res[1].Err.(*proto.ErrorMsg); !ok || em.Code != proto.CodeBadRequest {
		t.Fatalf("item error = %v, want CodeBadRequest", res[1].Err)
	}
	want := pool.RangeAppend(nil, w)
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || !sameIDs(res[i].IDs, want) {
			t.Fatalf("healthy item %d failed alongside the bad one: %v", i, res[i].Err)
		}
	}
}

// TestBatchClientValidation covers the client-side batch size checks.
func TestBatchClientValidation(t *testing.T) {
	_, _, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	if _, err := c.QueryBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	big := make([]proto.QueryMsg, proto.MaxBatchQueries+1)
	for i := range big {
		big[i] = proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs}
	}
	if _, err := c.QueryBatch(big); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchWireAmortization checks the acceptance arithmetic end to end: N
// queries per batch must cost one frame exchange, so frames/query shrinks by
// the batch factor against single queries.
func TestBatchWireAmortization(t *testing.T) {
	ds, _, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	center := ds.Extent.Center()
	w := geom.Rect{
		Min: geom.Point{X: center.X - 300, Y: center.Y - 300},
		Max: geom.Point{X: center.X + 300, Y: center.Y + 300},
	}

	before := c.WireStats()
	for i := 0; i < 4; i++ {
		if _, err := c.RangeIDs(w); err != nil {
			t.Fatal(err)
		}
	}
	mid := c.WireStats()
	if got := mid.FramesTx - before.FramesTx; got != 4 {
		t.Fatalf("4 single queries cost %d tx frames, want 4", got)
	}

	qs := make([]proto.QueryMsg, 16)
	for i := range qs {
		qs[i] = proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w}
	}
	if _, err := c.QueryBatch(qs); err != nil {
		t.Fatal(err)
	}
	after := c.WireStats()
	if got := after.FramesTx - mid.FramesTx; got != 1 {
		t.Fatalf("a 16-query batch cost %d tx frames, want 1", got)
	}
	if got := after.Queries - mid.Queries; got != 16 {
		t.Fatalf("batch counted %d queries, want 16", got)
	}
}
