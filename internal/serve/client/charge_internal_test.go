package client

import (
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
	"mobispatial/internal/sim"
)

// paCharge is the whole PA map as a client shipment, requested with PA's
// record size (as FetchShipment builds it), and a client that is never
// dialed.
func paCharge(t testing.TB) (*dataset.Dataset, *Client, *Shipment) {
	t.Helper()
	ds := dataset.PA()
	recs := make([]proto.Record, ds.Len())
	for i, seg := range ds.Segments {
		recs[i] = proto.Record{ID: uint32(i), Seg: seg}
	}
	ship, err := NewShipment(&proto.ShipmentMsg{Coverage: ds.Extent, Records: recs}, ds.RecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return ds, c, ship
}

// paWorkload is the 100 range, 100 point and 100 1-NN queries of the
// simulator's seeded PA workload, by kind.
func paWorkload(ds *dataset.Dataset) map[string][]scheme.Query {
	w := map[string][]scheme.Query{}
	for _, r := range dataset.RangeQueries(ds, 100, 1) {
		w["range"] = append(w["range"], scheme.Range(r))
	}
	for _, p := range dataset.PointQueries(ds, 100, 1) {
		w["point"] = append(w["point"], scheme.Point(p))
	}
	for _, p := range dataset.NNQueries(ds, 100, 1) {
		w["nn"] = append(w["nn"], scheme.Nearest(p))
	}
	return w
}

// charge answers qs locally and returns what the span was charged.
func charge(t *testing.T, c *Client, ship *Shipment, qs []scheme.Query) (joules, cycles float64) {
	t.Helper()
	var sp obs.Span
	for _, q := range qs {
		if _, _, _, err := c.runLocal(ship, q, &sp, obs.StageIndexWalk, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	lap := sp.Laps[obs.StageIndexWalk]
	return lap.Joules, lap.Cycles
}

// TestLocalChargeIsTheSimulators: a local answer is charged what the
// simulator charges the same query run fully at the client on the same
// tree — its walk counted and priced from the one price list, not timed on
// the host. Cycles agree within 15 % (the price list models no I-cache and
// charges every data line as a miss); Joules within a factor 2 (the
// constant P_client against the simulator's per-activity power).
func TestLocalChargeIsTheSimulators(t *testing.T) {
	ds, c, ship := paCharge(t)
	for kind, qs := range paWorkload(ds) {
		sys, err := sim.New(sim.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngineWithTree(ds, ship.Tree, sys)
		for _, q := range qs {
			if _, err := eng.Run(q, core.FullyClient, core.DataAtClient); err != nil {
				t.Fatal(err)
			}
		}
		r := sys.Result()
		simCycles, simJoules := float64(r.ProcessorCycles), r.Energy.Total()
		joules, cycles := charge(t, c, ship, qs)
		t.Logf("%-5s charged %.4g cycles %.4g J; simulated %.4g cycles %.4g J (%.3f×, %.3f×)",
			kind, cycles, joules, simCycles, simJoules, cycles/simCycles, joules/simJoules)
		if math.Abs(cycles-simCycles) > 0.15*simCycles {
			t.Errorf("%s: charged %.4g cycles, the simulator %.4g", kind, cycles, simCycles)
		}
		if joules < simJoules/2 || joules > 2*simJoules {
			t.Errorf("%s: charged %.4g J, the simulator %.4g", kind, joules, simJoules)
		}
	}
}

// TestLocalChargeIsHostIndependent: the same answers charge bit-identical
// Joules and cycles whatever the host's parallelism.
func TestLocalChargeIsHostIndependent(t *testing.T) {
	ds, c, ship := paCharge(t)
	var qs []scheme.Query
	for _, kind := range []string{"range", "point", "nn"} {
		qs = append(qs, paWorkload(ds)[kind]...)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	j1, c1 := charge(t, c, ship, qs)
	runtime.GOMAXPROCS(2)
	j2, c2 := charge(t, c, ship, qs)
	if j1 != j2 || c1 != c2 || j1 <= 0 {
		t.Errorf("GOMAXPROCS 1 charged %v J / %v cycles, GOMAXPROCS 2 %v J / %v cycles", j1, c1, j2, c2)
	}
}

// TestBuiltShipmentChargedLikeFetched: a shipment the caller builds (mqload
// -fallback's whole map) charges its local answers exactly what the same
// records charge when fetched from a server, record reads included.
func TestBuiltShipmentChargedLikeFetched(t *testing.T) {
	ds, c, built := paCharge(t)
	msg := &proto.ShipmentMsg{Coverage: ds.Extent, Records: make([]proto.Record, ds.Len())}
	for i, seg := range ds.Segments {
		msg.Records[i] = proto.Record{ID: uint32(i), Seg: seg}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		req, _, err := proto.ReadMessage(nc)
		if err != nil {
			return
		}
		reply := *msg
		reply.ID = req.RequestID()
		proto.WriteMessage(nc, &reply)
	}()
	fc, err := New(Config{Addr: lis.Addr().String(), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	fetched, err := fc.FetchShipment(ds.Extent, 1<<30, ds.RecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	for kind, qs := range paWorkload(ds) {
		jb, cb := charge(t, c, built, qs)
		jf, cf := charge(t, c, fetched, qs)
		if jb != jf || cb != cf || jb <= 0 {
			t.Errorf("%s: a built shipment charged %v J / %v cycles, a fetched one %v J / %v cycles", kind, jb, cb, jf, cf)
		}
	}
}

// BenchmarkLocalAnswer prices the charge: the seeded PA range, point and
// 1-NN queries, and the same points at k = 4 (nn4), answered over the
// whole-PA shipment through runLocal (answered, counted, timed and priced:
// one kernel walk and the one clock reading after it; the one before is the
// caller's) and through Shipment.Answer (answered and counted, never timed
// or priced).
func BenchmarkLocalAnswer(b *testing.B) {
	ds, c, ship := paCharge(b)
	kinds := paWorkload(ds)
	for _, q := range kinds["nn"] {
		kinds["nn4"] = append(kinds["nn4"], scheme.KNearest(q.Point, 4))
	}
	for _, kind := range []string{"range", "point", "nn", "nn4"} {
		qs := kinds[kind]
		b.Run(kind+"/charged", func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := c.runLocal(ship, qs[i%len(qs)], nil, obs.StageIndexWalk, start); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(kind+"/uncharged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ship.Answer(qs[i%len(qs)], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLocalAnswerAllocatesOnlyItsAnswer: a warm local answer of any kind
// allocates its records and nothing else. The walk runs in a scratch the
// shipment keeps, k-NN heap and branch buffers included, and the records
// are made in one pass.
func TestLocalAnswerAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ds, _, ship := paCharge(t)
	kinds := paWorkload(ds)
	kinds["nn4"] = []scheme.Query{scheme.KNearest(kinds["nn"][0].Point, 4)}
	for kind, qs := range kinds {
		q := qs[0]
		if _, err := ship.Answer(q, 0); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _, _ = ship.Answer(q, 0) }); allocs > 1 {
			t.Errorf("%s: a warm local answer allocates %.0f times, want at most 1 (its records)", kind, allocs)
		}
	}
}
