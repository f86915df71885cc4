package serve

import (
	"math/rand"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// staticMixBytesCeiling is the wire bytes per query TestStaticMixWireBytes
// allows: the 135.6 B the run-coded id lists, endpoint-chained records and
// kind-shaped queries measured on this mix, plus 7 %. The fixed-width frames
// they replaced moved about 880 B.
const staticMixBytesCeiling = 145

// TestStaticMixWireBytes guards the wire coding's size: a bare server over PA
// answers the benchmark's static mix — 60 % point and 25 % range queries in
// id mode, 15 % 1-NN in data mode, drawn by the dataset package's §5.4
// generators — and the client's own counters, both directions and every
// frame header included, must stay under the ceiling. A coding regression
// fails here, not only in the benchmark.
func TestStaticMixWireBytes(t *testing.T) {
	ds := dataset.PA()
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Pool: pool, Master: tree})
	c := newClient(t, addr, 1)

	const n = 2000
	rng := rand.New(rand.NewSource(1))
	pts := dataset.PointQueries(ds, n, rng.Int63())
	wins := dataset.RangeQueries(ds, n, rng.Int63())
	nns := dataset.NNQueries(ds, n, rng.Int63())
	base := c.WireStats()
	for i := 0; i < n; i++ {
		switch k := rng.Intn(100); {
		case k < 60:
			_, err = c.PointIDs(pts[i], 0)
		case k < 85:
			_, err = c.RangeIDs(wins[i])
		default:
			_, err = c.KNearest(nns[i], 1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ws := c.WireStats()
	perQuery := float64(ws.BytesTx+ws.BytesRx-base.BytesTx-base.BytesRx) / float64(ws.Queries-base.Queries)
	t.Logf("static mix: %.1f wire bytes per query (ceiling %d)", perQuery, staticMixBytesCeiling)
	if perQuery > staticMixBytesCeiling {
		t.Errorf("static mix moved %.1f wire bytes per query, above the %d B ceiling", perQuery, staticMixBytesCeiling)
	}
}
