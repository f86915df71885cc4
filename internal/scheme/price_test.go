package scheme

import (
	"math"
	"slices"
	"testing"

	"mobispatial/internal/cpu"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

func priceWorld(t *testing.T) (*dataset.Dataset, *rtree.Tree) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "price", NumSegments: 6000, RecordBytes: 76,
		Extent:   geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 20000, Y: 20000}},
		Clusters: 4, ClusterStdFrac: 0.1, UniformFrac: 0.3,
		StreetSegs: [2]int{2, 8}, SegLen: [2]float64{40, 160},
		GridBias: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, tree
}

// TestPricesACountedWalk: a counted rtree.Tree.Search walk is priced from
// cpu.DefaultOpCosts and nothing else — on the Table 3 client, one cycle per
// instruction plus the stated miss allowance (MemLatency for every 32-byte
// D-cache line read or written), on the Table 4 server the same
// instructions at 4 × 0.65 a cycle.
func TestPricesACountedWalk(t *testing.T) {
	_, tree := priceWorld(t)
	p := DefaultPrices()
	costs := cpu.DefaultOpCosts()
	for _, w := range []geom.Rect{
		{Min: geom.Point{X: 9000, Y: 9000}, Max: geom.Point{X: 11000, Y: 11000}},
		{Min: geom.Point{X: 100, Y: 100}, Max: geom.Point{X: 150, Y: 150}},
	} {
		var c ops.Counts
		tree.Search(w, &c)
		var instr int64
		for op, n := range c.Ops {
			instr += n * int64(costs[op].Instr)
		}
		if instr == 0 {
			t.Fatalf("window %v: empty walk", w)
		}
		misses := float64(c.LoadBytes+c.StoreBytes) / 32
		if got, want := p.ClientCycles(c), float64(instr)+misses*100; got != want {
			t.Errorf("window %v: client cycles %g, want %d instructions + %g lines × 100 = %g", w, got, instr, misses, want)
		}
		if got, want := p.ServerCycles(c), float64(instr)/2.6; math.Abs(got-want) > 1e-9*want {
			t.Errorf("window %v: server cycles %g, want %g", w, got, want)
		}
	}
}

// TestProtocolCyclesAreTheSimulatorsCharge: the protocol price is the client
// cycles of what proto.Transfer.ChargeProcessing records for the send and
// the receive.
func TestProtocolCyclesAreTheSimulatorsCharge(t *testing.T) {
	p := DefaultPrices()
	for _, sizes := range [][2]int{{proto.QueryRequestBytes, proto.IDListBytes(3)}, {0, 0}, {proto.BatchQueryBytes(16), proto.IDListBytes(5000)}} {
		tx, rx := proto.Packetize(sizes[0]), proto.Packetize(sizes[1])
		var c ops.Counts
		tx.ChargeProcessing(&c, true)
		rx.ChargeProcessing(&c, false)
		if got, want := p.ProtocolCycles(tx, rx), p.ClientCycles(c); got != want {
			t.Errorf("payloads %v: protocol cycles %g, the charged counts price at %g", sizes, got, want)
		}
	}
}

// TestEstimateReadsLikeAWalk: the estimator's filtering counts have a
// counted walk's structure — a header per node, an entry per MBR test, an id
// per candidate — and a range's candidates scale with its window's share of
// the extent.
func TestEstimateReadsLikeAWalk(t *testing.T) {
	ds, tree := priceWorld(t)
	s := Shape{Items: tree.Len(), Extent: ds.Extent, Height: tree.Height(), Fanout: tree.Fanout(), RecordBytes: ds.RecordBytes}
	quarter := Range(geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 10000, Y: 10000}})
	for _, q := range []Query{quarter, Point(ds.Extent.Center()), KNearest(ds.Extent.Center(), 3)} {
		w := EstimateWork(q, s)
		f := w.Filter
		if want := f.Ops[ops.OpNodeVisit]*rtree.HeaderBytes + f.Ops[ops.OpMBRTest]*rtree.EntryBytes; f.LoadBytes != want {
			t.Errorf("%v: filter reads %d B, its visits and tests read %d", q.Kind, f.LoadBytes, want)
		}
		if f.Ops[ops.OpResultAppend] != w.Candidates || f.StoreBytes != 4*w.Candidates {
			t.Errorf("%v: filter appends %d ids in %d B for %d candidates", q.Kind, f.Ops[ops.OpResultAppend], f.StoreBytes, w.Candidates)
		}
		if f.Ops[ops.OpNodeVisit] < int64(tree.Height()) || w.Hits > w.Candidates {
			t.Errorf("%v: %+v", q.Kind, w)
		}
	}
	if got, want := EstimateWork(quarter, s).Candidates, int64(tree.Len()+3)/4; got != want {
		t.Errorf("a quarter of the extent estimated at %d candidates, want %d", got, want)
	}
	if got := EstimateWork(KNearest(ds.Extent.Center(), 3), s).Hits; got != 3 {
		t.Errorf("3-NN estimated at %d hits", got)
	}
}

// TestCountWorkRefinesLikeTheEngine: a counted walk is the stream
// internal/core's engine runs — its filter the instrumented walk's counts,
// its candidates that walk's ids, its hits (and its answer) the candidates
// whose segment passes the exact test. A k-NN's counts are the traced k-NN
// walk's (KNearest, at k = 1 too: the live client answers a 1-NN as k-NN at
// k = 1, never by the simulator's MINMAXDIST Nearest), but for two heap
// operations per equal-distance neighbor the kernel's (distance, id) order
// admits and that walk refuses, and its candidates are the distances the
// walk asked for. It holds on PA and on NYC, over each one's seeded range,
// point and NN queries (the simulator's workload, seed 1).
func TestCountWorkRefinesLikeTheEngine(t *testing.T) {
	for _, ds := range []*dataset.Dataset{dataset.PA(), dataset.NYC()} {
		tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			t.Fatal(err)
		}
		type walk struct {
			q     Query
			walk  func(*ops.Counts) []uint32
			exact func(geom.Segment) bool
		}
		var walks []walk
		for _, r := range dataset.RangeQueries(ds, 20, 1) {
			walks = append(walks, walk{Range(r), func(c *ops.Counts) []uint32 { return tree.Search(r, c) },
				func(s geom.Segment) bool { return s.IntersectsRect(r) }})
		}
		for _, p := range dataset.PointQueries(ds, 20, 1) {
			walks = append(walks, walk{Point(p), func(c *ops.Counts) []uint32 { return tree.SearchPoint(p, c) },
				func(s geom.Segment) bool { return s.ContainsPoint(p, PointEps) }})
		}
		hitsSeen := map[QueryKind]int64{}
		for _, tc := range walks {
			var want ops.Counts
			cands := tc.walk(&want)
			w, recs := CountWork(tc.q, tree, ds.RecordBytes, nil)
			if w.Filter != want || w.Candidates != int64(len(cands)) || w.RecordBytes != ds.RecordBytes {
				t.Errorf("%s %v: counted %+v over %d candidates, the walk records %+v over %d", ds.Name, tc.q.Kind, w.Filter, w.Candidates, want, len(cands))
			}
			var hits []uint32
			for _, id := range cands {
				if tc.exact(ds.Seg(id)) {
					hits = append(hits, id)
				}
			}
			ids := make([]uint32, len(recs))
			for i, r := range recs {
				ids[i] = r.ID
				if r.Seg != ds.Seg(r.ID) {
					t.Errorf("%s %v: id %d answered with %v, its segment is %v", ds.Name, tc.q.Kind, r.ID, r.Seg, ds.Seg(r.ID))
				}
			}
			if w.Hits != int64(len(hits)) || !slices.Equal(ids, hits) {
				t.Errorf("%s %v: counted %d hits, answered %d, refinement keeps %d", ds.Name, tc.q.Kind, w.Hits, len(ids), len(hits))
			}
			hitsSeen[tc.q.Kind] += int64(len(hits))
		}
		if hitsSeen[RangeQuery] == 0 || hitsSeen[PointQuery] == 0 {
			t.Errorf("%s: the seeded queries hit nothing: %v", ds.Name, hitsSeen)
		}
		for _, c := range dataset.NNQueries(ds, 10, 1) {
			for _, k := range []int{1, 4} {
				var want ops.Counts
				var asked int64
				tied, seen := false, map[float64]bool{}
				traced := tree.KNearest(c, k, func(id uint32) float64 {
					d := ds.Seg(id).DistToPoint(c)
					asked++
					tied = tied || seen[d]
					seen[d] = true
					return d
				}, &want)
				w, recs := CountWork(KNearest(c, k), tree, ds.RecordBytes, nil)
				got := w.Filter
				if extra := got.Ops[ops.OpHeapOp] - want.Ops[ops.OpHeapOp]; tied && extra > 0 && extra%2 == 0 {
					got.Ops[ops.OpHeapOp] = want.Ops[ops.OpHeapOp]
				}
				if got != want || w.Candidates != asked || w.Hits != int64(len(traced)) || len(recs) != len(traced) {
					t.Errorf("%s %d-NN: counted %d candidates, %d hits and\n %+v\nthe traced walk asked %d distances for %d and records\n %+v",
						ds.Name, k, w.Candidates, w.Hits, w.Filter, asked, len(traced), want)
				}
			}
		}
	}
}

// TestInputsSplitTheWork: the partitioned side moves work between the
// machines but prices it with the same table — a fully-server execution's
// server cycles are the fully-local instructions (plus dispatch and reply
// marshalling) at the server's IPC, the candidate-upload hybrid keeps the
// filtering at the client, and a batch divides only the exchange.
func TestInputsSplitTheWork(t *testing.T) {
	ds, tree := priceWorld(t)
	s := Shape{Items: tree.Len(), Extent: ds.Extent, Height: tree.Height(), Fanout: tree.Fanout(), RecordBytes: ds.RecordBytes}
	w := EstimateWork(Range(geom.Rect{Min: geom.Point{X: 8000, Y: 8000}, Max: geom.Point{X: 12000, Y: 12000}}), s)
	p := DefaultPrices()
	local := p.Inputs(FullyClient, &w, 1)
	fs := p.Inputs(FullyServer, &w, 1)
	fcrs := p.Inputs(FilterClientRefineServer, &w, 1)
	if local.CFullyLocal != fs.CFullyLocal || fs.CFullyLocal != fcrs.CFullyLocal {
		t.Fatalf("the fully-local side depends on the scheme: %g %g %g", local.CFullyLocal, fs.CFullyLocal, fcrs.CFullyLocal)
	}
	if local.CW2 != 0 || local.PacketTxBits != 0 {
		t.Fatalf("fully-client inputs carry a partition: %+v", local)
	}
	if fs.CW2 >= fs.CFullyLocal || fs.CW2 <= fcrs.CW2 || fcrs.CLocal <= fs.CLocal {
		t.Errorf("work split: fully-server CW2 %g CLocal %g, hybrid CW2 %g CLocal %g, fully-local %g",
			fs.CW2, fs.CLocal, fcrs.CW2, fcrs.CLocal, fs.CFullyLocal)
	}
	if fcrs.PacketTxBits <= fs.PacketTxBits {
		t.Errorf("the hybrid's upload %g bits is not above the bare request's %g", fcrs.PacketTxBits, fs.PacketTxBits)
	}
	batched := p.Inputs(FullyServer, &w, 16)
	if batched.CFullyLocal != fs.CFullyLocal || batched.CW2 != fs.CW2 || batched.CLocal != fs.CLocal {
		t.Errorf("a batch changed the work: %+v vs %+v", batched, fs)
	}
	if batched.CProtocol >= fs.CProtocol || batched.PacketRxBits >= fs.PacketRxBits {
		t.Errorf("a batch did not amortize the exchange: %+v vs %+v", batched, fs)
	}
}

// TestOffloadFor is the advisors' column over the two objectives' choices,
// read off scheme.Choose the way both advisors read it.
func TestOffloadFor(t *testing.T) {
	stay := Estimate{Scheme: FullyClient, Joules: 1, Seconds: 1}
	for _, tc := range []struct {
		offload Estimate
		want    string
	}{
		{Estimate{FullyServer, 0.5, 0.5}, "both"},
		{Estimate{FullyServer, 3, 0.5}, "performance"},
		{Estimate{FullyServer, 0.5, 3}, "energy"},
		{Estimate{FullyServer, 3, 3}, "neither"},
		{Estimate{FullyServer, 1, 1}, "neither"}, // a tie stays local
	} {
		perf := Choose(Performance, stay, tc.offload).Scheme == FullyServer
		en := Choose(Energy, stay, tc.offload).Scheme == FullyServer
		if got := OffloadFor(perf, en); got != tc.want {
			t.Errorf("offload %+v: %q, want %q", tc.offload, got, tc.want)
		}
	}
}
