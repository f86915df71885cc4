// oracle.go checks answers. Every answer of the counted pass is compared
// with the monolithic packed tree's (plus the benchmark's own ledger of the
// moving objects), one in twenty also with a flat scan of the dataset that
// shares no code with any index. Errors, refusals and mismatches all count
// as failed operations.
package main

import (
	"math"
	"slices"
	"time"

	"mobispatial/bench/workload"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
)

const (
	bruteEvery = 20  // one answer in this many is also checked by a flat scan
	chunkOps   = 256 // counted-pass operations issued between two verifications
	distTol    = 1e-9
)

// oracle answers a query from first principles.
type oracle struct {
	ds    *dataset.Dataset
	items []rtree.Item // every segment's id and MBR, for the flat scan
	pool  *parallel.Pool
	// veh is the last acked geometry of every moving object, replayed in
	// operation order by the verifier.
	veh map[uint32]geom.Segment

	sc        parallel.Scratch
	want, got []uint32
	wantD     []float64
	gotD      []float64
	nbs       []rtree.Neighbor
	seen      int64
}

func newOracleFor(ds *dataset.Dataset, place []workload.Op) (*oracle, error) {
	pool, err := newOracle(ds)
	if err != nil {
		return nil, err
	}
	o := &oracle{ds: ds, items: ds.Items(), pool: pool, veh: make(map[uint32]geom.Segment, len(place))}
	for i := range place {
		o.veh[place[i].ID] = place[i].Seg()
	}
	return o, nil
}

// segOf resolves an id the way the world currently stands.
func (o *oracle) segOf(id uint32) (geom.Segment, bool) {
	if int(id) < o.ds.Len() {
		return o.ds.Seg(id), true
	}
	sg, ok := o.veh[id]
	return sg, ok
}

// pointHit is the point query's predicate: the filter keeps segments whose
// MBR contains the point, refinement those within eps of it.
func pointHit(sg geom.Segment, pt geom.Point) bool {
	return sg.MBR().ContainsPoint(pt) && sg.ContainsPoint(pt, serve.DefaultPointEps)
}

// wantIDs computes the expected id set of a point or range query, sorted.
// brute replaces the packed tree by a scan of every segment.
func (o *oracle) wantIDs(op *workload.Op, brute bool) []uint32 {
	w := o.want[:0]
	pt, win := op.Pt(), op.Win()
	if op.Kind == workload.Point {
		win = geom.Rect{Min: pt, Max: pt}
	}
	hit := func(sg geom.Segment) bool {
		if op.Kind == workload.Point {
			return pointHit(sg, pt)
		}
		return sg.IntersectsRect(win)
	}
	switch {
	case brute:
		// The MBR screen only skips segments neither predicate can accept.
		for i := range o.items {
			it := &o.items[i]
			if it.MBR.Min.X <= win.Max.X && it.MBR.Max.X >= win.Min.X &&
				it.MBR.Min.Y <= win.Max.Y && it.MBR.Max.Y >= win.Min.Y && hit(o.ds.Seg(it.ID)) {
				w = append(w, it.ID)
			}
		}
	case op.Kind == workload.Point:
		w = o.pool.PointAppend(w, pt, serve.DefaultPointEps)
	default:
		w = o.pool.RangeAppend(w, win)
	}
	for id, sg := range o.veh {
		if hit(sg) {
			w = append(w, id)
		}
	}
	slices.Sort(w)
	o.want = w
	return w
}

// wantDists computes the expected distances of a k-NN query, ascending.
func (o *oracle) wantDists(op *workload.Op, brute bool) []float64 {
	pt, k := op.Pt(), max(int(op.K), 1)
	d := o.wantD[:0]
	// offer keeps d the k smallest distances seen, ascending.
	offer := func(x float64) {
		if len(d) == k && x >= d[k-1] {
			return
		}
		if len(d) < k {
			d = append(d, x)
		}
		i := len(d) - 1
		for ; i > 0 && d[i-1] > x; i-- {
			d[i] = d[i-1]
		}
		d[i] = x
	}
	if brute {
		for _, sg := range o.ds.Segments {
			offer(sg.DistToPoint(pt))
		}
	} else {
		o.nbs, _ = o.pool.KNearestAppend(o.nbs[:0], pt, k, &o.sc)
		for _, nb := range o.nbs {
			offer(nb.Dist)
		}
	}
	for _, sg := range o.veh {
		offer(sg.DistToPoint(pt))
	}
	o.wantD = d
	return d
}

// check verifies one answer against the world as it stood when the
// operation ran, and replays a Move into the ledger. It reports whether the
// answer was right.
func (o *oracle) check(op *workload.Op, a *answer) bool {
	o.seen++
	ok := o.verify(op, a, false)
	if ok && o.seen%bruteEvery == 0 && op.Kind != workload.Move {
		ok = o.verify(op, a, true)
	}
	return ok
}

func (o *oracle) verify(op *workload.Op, a *answer, brute bool) bool {
	if a.err != nil {
		return false
	}
	switch op.Kind {
	case workload.Move:
		o.veh[op.ID] = op.Seg()
		if !op.Readback {
			return true
		}
		// The read-back window is the fresh geometry's MBR; the answer
		// must be the full range answer, vehicle included.
		rb := workload.Op{Kind: workload.Range, F: mbrF(op.Seg())}
		return slices.Contains(a.ids, op.ID) && o.sameIDs(&rb, a.ids, nil, brute)
	case workload.NN:
		return o.sameDists(op, a.recs, brute)
	}
	return o.sameIDs(op, a.ids, a.recs, brute)
}

func mbrF(sg geom.Segment) [4]float64 {
	r := sg.MBR()
	return [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}
}

// sameIDs compares an id-mode or data-mode answer with the expected set; in
// data mode every record must also carry the object's current geometry.
func (o *oracle) sameIDs(op *workload.Op, ids []uint32, recs []proto.Record, brute bool) bool {
	g := o.got[:0]
	if op.Data {
		for i := range recs {
			if sg, ok := o.segOf(recs[i].ID); !ok || sg != recs[i].Seg {
				return false
			}
			g = append(g, recs[i].ID)
		}
	} else {
		g = append(g, ids...)
	}
	slices.Sort(g)
	o.got = g
	return slices.Equal(g, o.wantIDs(op, brute))
}

// sameDists compares a k-NN answer by distance, which is what "nearest"
// defines; ties may legitimately name different ids.
func (o *oracle) sameDists(op *workload.Op, recs []proto.Record, brute bool) bool {
	pt := op.Pt()
	g := o.gotD[:0]
	for i := range recs {
		if sg, ok := o.segOf(recs[i].ID); !ok || sg != recs[i].Seg {
			return false
		}
		g = append(g, recs[i].Seg.DistToPoint(pt))
	}
	o.gotD = g
	want := o.wantDists(op, brute)
	if len(g) != len(want) || !slices.IsSorted(g) {
		return false
	}
	for i := range g {
		if math.Abs(g[i]-want[i]) > distTol*math.Max(1, want[i]) {
			return false
		}
	}
	return true
}

// wireDelta is the client's wire traffic over an interval.
type wireDelta struct {
	tx, rx, frames, exchanges, queries uint64
}

func wireSince(c *client.Client, base client.WireStats) wireDelta {
	ws := c.WireStats()
	return wireDelta{
		tx: ws.BytesTx - base.BytesTx, rx: ws.BytesRx - base.BytesRx,
		frames:    ws.FramesTx + ws.FramesRx - base.FramesTx - base.FramesRx,
		exchanges: ws.Exchanges - base.Exchanges, queries: ws.Queries - base.Queries,
	}
}

func (w wireDelta) bytesPerQuery() float64  { return float64(w.tx+w.rx) / float64(w.queries) }
func (w wireDelta) framesPerQuery() float64 { return float64(w.frames) / float64(w.queries) }

// paperLinkBps is the paper's base wireless bandwidth. The NIC energy is
// priced at it, not at the loopback bandwidth the client measures: the
// question is what these bytes and exchanges would cost the paper's radio.
const paperLinkBps = 2e6

// nicMilliJoulesPerQuery prices the traffic with the paper's Table 2 powers:
// transmit and receive time at 2 Mbps plus one sleep-exit per exchange.
func (w wireDelta) nicMilliJoulesPerQuery() float64 {
	j := obs.DefaultEnergyModel().NICExchangeJoules(int(w.tx), int(w.rx), int(w.exchanges), paperLinkBps)
	return j / float64(w.queries) * 1e3
}

// countedResult is what one counted pass measured.
type countedResult struct {
	ops, failed int64
	mallocs     uint64
	wire        wireDelta
	ring        []workload.Op // the operations, in order
	answers     []answer      // their answers (traced passes only)
	rt          []int64       // their round-trip times in ns
}

func (r *countedResult) allocsPerOp() float64 { return float64(r.mallocs) / float64(r.wire.queries) }

// countedPass issues the next countedOps operations of the single-threaded
// stream one at a time and checks every answer. Operations go out in chunks;
// allocations are counted around the issuing half of each chunk only, so
// neither the oracle nor the tracer's bookkeeping is charged to the program.
// With a tracer, every exchange is recorded as a client.roundtrip span and
// the answers are kept for the ladder.
func (e *env) countedPass(tr *tracer) (*countedResult, error) {
	c := e.st.cli
	warm := make([]workload.Op, e.cfg.size.warmOps)
	e.counted.Fill(warm)
	for i := range warm {
		a := issueCounted(c, &warm[i])
		e.oracle.check(&warm[i], &a)
	}

	r := &countedResult{ring: make([]workload.Op, e.cfg.size.countedOps)}
	e.counted.Fill(r.ring)
	r.rt = make([]int64, len(r.ring))
	answers := make([]answer, len(r.ring))
	base := c.WireStats()
	for lo := 0; lo < len(r.ring); lo += chunkOps {
		hi := min(lo+chunkOps, len(r.ring))
		m0 := mallocs()
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			answers[i] = issueCounted(c, &r.ring[i])
			t1 := time.Now()
			r.rt[i] = int64(t1.Sub(t0))
			if tr != nil {
				tr.add(i, spanRoundTrip, "", t0, t1)
			}
		}
		r.mallocs += mallocs() - m0
		for i := lo; i < hi; i++ {
			if !e.oracle.check(&r.ring[i], &answers[i]) {
				r.failed++
			}
			if tr == nil {
				answers[i] = answer{} // let the reply go
			}
		}
	}
	r.wire = wireSince(c, base)
	r.ops = int64(len(r.ring))
	if tr != nil {
		r.answers = answers
	}
	return r, nil
}

// issueCounted is issue plus the read-back exchange of a flagged Move, whose
// ids land in the answer for the oracle.
func issueCounted(c *client.Client, op *workload.Op) answer {
	a := issue(c, op)
	if a.err == nil && op.Kind == workload.Move && op.Readback {
		a.ids, a.err = c.RangeIDs(op.Seg().MBR())
	}
	return a
}

// finalSweep checks, after the timed rounds, that the moving world equals
// the generator's ledger: every vehicle is where its last acked move put it,
// both in the pool's own records and in a range read over the wire. It
// returns the number of vehicles that are not.
func (e *env) finalSweep(ws []*worker) (failed int64) {
	if e.st.mut == nil {
		return 0
	}
	ledger := make(map[uint32]geom.Segment, len(e.oracle.veh))
	for id, sg := range e.oracle.veh {
		ledger[id] = sg
	}
	for _, w := range ws {
		for id, sg := range w.ledger {
			ledger[id] = sg
		}
	}
	for id, sg := range ledger {
		recs, err := e.st.cli.Range(sg.MBR())
		found := slices.ContainsFunc(recs, func(r proto.Record) bool { return r.ID == id && r.Seg == sg })
		if err != nil || !found || e.st.mut.SegOf(id) != sg {
			failed++
		}
	}
	return failed
}
