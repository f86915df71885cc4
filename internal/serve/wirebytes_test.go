package serve

import (
	"math/rand"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/energy"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/nic"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// The wire bytes per query TestStaticMixWireBytes allows.
//
// staticMixBytesCeiling, both directions: the 85.1 B that Rice-coded id
// lists, endpoint-chained records, kind-shaped queries, varint frame headers,
// one-byte request ids, windows whose Max is coded against their Min and
// replies that carry the epoch stamp only when asked measured on this mix,
// plus 7 %. Fixed-width frames moved about 880 B; the same codings behind
// fixed four-byte lengths, request ids and timeouts, 135.6 B; two-byte
// request ids and raw windows, 121.5 B; id lists in byte-aligned runs (a
// zigzag varint gap and a length byte each), 119.0 B; an 8-byte epoch on
// every reply, 93.1 B.
//
// staticMixUplinkCeiling, client to server only: the 23.7 B measured, plus
// 4 %. The fixed four-byte fields the varint headers and the implied
// default timeout replaced sent 34.2 B; two-byte request ids and raw
// windows, 25.0 B.
const (
	staticMixBytesCeiling  = 91
	staticMixUplinkCeiling = 25
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
	pool, err := shard.Over(tree)
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

// movingRecordCeiling is the downlink bytes per record TestMovingRecordsWireBytes
// allows: the 17.0 B that records coded against the point before them
// measured, frame, id, an 8-byte epoch and count included, plus 4 %; a reply
// that carries no unasked epoch reads 16.9 B. Records of raw float64
// endpoints, chained where a street runs on, measured 21.0 B.
const movingRecordCeiling = 17.7

// TestMovingRecordsWireBytes guards the record coding on the moving
// workload's read: a server over a PA mutable pool answers 1 km windows in
// data mode, centred where vehicles drive (on a segment's midpoint), and
// the client's received bytes per record must stay under the ceiling. The
// records are most of that workload's wire bytes.
func TestMovingRecordsWireBytes(t *testing.T) {
	ds := dataset.PA()
	pool, err := mutable.NewFromDataset(ds, 0, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	_, addr := startServer(t, Config{Pool: pool})
	c := newClient(t, addr, 1)

	rng := rand.New(rand.NewSource(1))
	base, records := c.WireStats(), 0
	for i := 0; i < 500; i++ {
		mid := ds.Seg(uint32(rng.Intn(ds.Len()))).Midpoint()
		recs, err := c.Range(geom.Rect{Min: mid, Max: mid}.Expand(500))
		if err != nil {
			t.Fatal(err)
		}
		records += len(recs)
	}
	rx := c.WireStats().BytesRx - base.BytesRx
	perRecord := float64(rx) / float64(records)
	t.Logf("moving reads: %d records in %d B, %.2f B per record (ceiling %.1f)", records, rx, perRecord, movingRecordCeiling)
	if perRecord > movingRecordCeiling {
		t.Errorf("%.2f received bytes per record, above the %.1f B ceiling", perRecord, movingRecordCeiling)
	}
}
