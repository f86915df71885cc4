package serve

import (
	"math/rand"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/energy"
	"mobispatial/internal/nic"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// The wire bytes per query TestStaticMixWireBytes allows.
//
// staticMixBytesCeiling, both directions: the 121.5 B that run-coded id
// lists, endpoint-chained records, kind-shaped queries and varint frame
// headers measured on this mix, plus 7 %. Fixed-width frames moved about
// 880 B; the same codings behind fixed four-byte lengths, request ids and
// timeouts, 135.6 B.
//
// staticMixUplinkCeiling, client to server only: the 25.0 B the varint
// headers and the implied default timeout measured, plus 4 %. The fixed
// four-byte fields they replaced sent 34.2 B.
const (
	staticMixBytesCeiling  = 130
	staticMixUplinkCeiling = 26
)

// TestStaticMixWireBytes guards the wire coding's size: a bare server over PA
// answers the benchmark's static mix — 60 % point and 25 % range queries in
// id mode, 15 % 1-NN in data mode, drawn by the dataset package's §5.4
// generators — and the client's own counters, every frame header included,
// must stay under the ceilings: both directions together, and the uplink,
// which the radio prices at about nineteen times a received byte. A coding
// regression fails here, not only in the benchmark. The log prints the
// modeled NIC mJ per query at the paper's 2 Mbps in its three parts.
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
	tx, rx := ws.BytesTx-base.BytesTx, ws.BytesRx-base.BytesRx
	q := float64(ws.Queries - base.Queries)
	up, down := float64(tx)/q, float64(rx)/q
	wake, txJ, rxJ := energy.DefaultClientModel().NICExchangeSplit(int(tx), int(rx),
		int(ws.Exchanges-base.Exchanges), nic.BaseBandwidthBps)
	t.Logf("static mix: %.1f wire bytes per query (ceiling %d): %.1f up (ceiling %d), %.1f down",
		up+down, staticMixBytesCeiling, up, staticMixUplinkCeiling, down)
	t.Logf("static mix: modeled NIC %.4f mJ per query = wake %.4f + Tx %.4f + Rx %.4f",
		(wake+txJ+rxJ)/q*1e3, wake/q*1e3, txJ/q*1e3, rxJ/q*1e3)
	if up+down > staticMixBytesCeiling {
		t.Errorf("static mix moved %.1f wire bytes per query, above the %d B ceiling", up+down, staticMixBytesCeiling)
	}
	if up > staticMixUplinkCeiling {
		t.Errorf("static mix sent %.1f bytes per query, above the %d B uplink ceiling", up, staticMixUplinkCeiling)
	}
}
