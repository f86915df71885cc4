// workload.go is what the driver drives: a point source (where the next
// query lands) composed with an issuer (how it reaches the server). Every
// source works with every issuer because the only thing that passes between
// them is "issue kind k at point p".
package main

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/roadnet"
	"mobispatial/internal/scheme"
	"mobispatial/internal/serve/client"
)

// queryKind is one row of the mix: the three forms a query of this kind at
// point p (window w around it) takes, one per issuer.
type queryKind struct {
	direct func(c *client.Client, p geom.Point, w geom.Rect) error // one exchange
	slot   func(p geom.Point, w geom.Rect) proto.QueryMsg          // one slot of a QueryBatch
	plan   func(p geom.Point, w geom.Rect) scheme.Query            // the planner's input
}

// queryKinds is the one place a query kind becomes a client call.
var queryKinds = map[string]*queryKind{
	"point": {
		direct: func(c *client.Client, p geom.Point, _ geom.Rect) error { _, err := c.PointIDs(p, 0); return err },
		slot: func(p geom.Point, _ geom.Rect) proto.QueryMsg {
			return proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: p}
		},
		plan: func(p geom.Point, _ geom.Rect) scheme.Query { return scheme.Point(p) },
	},
	"range": {
		direct: func(c *client.Client, _ geom.Point, w geom.Rect) error { _, err := c.RangeIDs(w); return err },
		slot: func(_ geom.Point, w geom.Rect) proto.QueryMsg {
			return proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w}
		},
		plan: func(_ geom.Point, w geom.Rect) scheme.Query { return scheme.Range(w) },
	},
	"nn": {
		direct: func(c *client.Client, p geom.Point, _ geom.Rect) error { _, err := c.Nearest(p); return err },
		slot: func(p geom.Point, _ geom.Rect) proto.QueryMsg {
			return proto.QueryMsg{Kind: proto.KindNN, Mode: proto.ModeData, Point: p}
		},
		plan: func(p geom.Point, _ geom.Rect) scheme.Query { return scheme.Nearest(p) },
	},
}

// outcome is what one step of a worker completed: ok exchanges that each
// took `took`, failed ones with the first error, and — for a move — what
// the ack said.
type outcome struct {
	ok, failed int
	took       time.Duration
	err        error
	notOwned   bool // the ack disowned the object
	epochBump  bool // the ack's base epoch moved past the vehicle's last one
}

// timed runs one exchange as one outcome.
func timed(call func() error) outcome {
	start := time.Now()
	err := call()
	o := outcome{took: time.Since(start), err: err}
	if err != nil {
		o.failed = 1
	} else {
		o.ok = 1
	}
	return o
}

// workload is one run's point source and issuer, built once from the flags
// and instantiated per worker.
type workload struct {
	c      *client.Client
	ds     *dataset.Dataset
	mix    mix
	rangeW float64
	seed   int64

	// The issuer: the planner when set, else QueryBatch of batch when > 1,
	// else one exchange per query.
	planner *client.Planner
	batch   int

	// The point source: the fleet when set, else Zipf over centres when
	// set, else uniform over extent.
	extent  geom.Rect
	zipfS   float64
	centres []geom.Point
	fleet   *fleet

	// What the driver reports a step under: a fleet's writes and its reads,
	// one series of queries otherwise.
	series []string
}

// shipPlanner makes the planner the issuer: ship a sub-index around the map
// center, then confine the uniform source to the covered window so the §4.1
// advisor — not missing coverage — decides each query's scheme. One planner
// is shared by all workers: the shipment is read-only after the fetch.
func (wl *workload) shipPlanner(out io.Writer, shipW float64, budget int) error {
	pl := client.NewPlanner(wl.c)
	center := wl.extent.Center()
	if err := pl.FetchShipment(geom.Rect{Min: center, Max: center}.Expand(shipW), budget, wl.ds.RecordBytes); err != nil {
		return fmt.Errorf("shipment: %w", err)
	}
	cov := pl.Shipment().Coverage
	fmt.Fprintf(out, "mqload: planner mode, shipment covers %.1fx%.1f km (%d records)\n",
		cov.Width()/1000, cov.Height()/1000, pl.Shipment().Len())
	wl.planner, wl.extent = pl, cov
	return nil
}

// newIssuer returns one worker's "issue kind k at point p".
func (wl *workload) newIssuer() func(k *queryKind, p geom.Point) outcome {
	window := func(p geom.Point) geom.Rect { return geom.Rect{Min: p, Max: p}.Expand(wl.rangeW) }
	switch {
	case wl.planner != nil:
		cov := wl.planner.Shipment().Coverage
		return func(k *queryKind, p geom.Point) outcome {
			// Keep a window that reaches coverage inside it so the advisor,
			// not the coverage check, picks the scheme.
			w := window(p)
			if in := w.Intersection(cov); !in.IsEmpty() {
				w = in
			}
			return timed(func() error { _, err := wl.planner.Execute(k.plan(p, w)); return err })
		}
	case wl.batch > 1:
		// Micro-batching: queries queue until the batch is full, then travel
		// as one QueryBatch exchange. Every query in the batch experienced
		// the batch's round trip, so each records the full latency.
		qs := make([]proto.QueryMsg, 0, wl.batch)
		return func(k *queryKind, p geom.Point) outcome {
			qs = append(qs, k.slot(p, window(p)))
			if len(qs) < wl.batch {
				return outcome{}
			}
			start := time.Now()
			rs, err := wl.c.QueryBatch(qs)
			o := outcome{took: time.Since(start), err: err}
			qs = qs[:0]
			if err != nil {
				o.failed = wl.batch
				return o
			}
			for _, r := range rs {
				if r.Err == nil {
					o.ok++
					continue
				}
				o.failed++
				if o.err == nil {
					o.err = r.Err
				}
			}
			return o
		}
	default:
		return func(k *queryKind, p geom.Point) outcome {
			return timed(func() error { return k.direct(wl.c, p, window(p)) })
		}
	}
}

// hotJitter keeps a hotspot's queries inside a handful of the result
// cache's snapping cells (default pitch 512 map units).
const hotJitter = 64.0

// newSource returns one worker's point source: where its next query lands.
// (A fleet's reads land where its vehicles are; see newWorker.)
func (wl *workload) newSource(rng *rand.Rand) func() geom.Point {
	if wl.centres == nil {
		return func() geom.Point {
			return geom.Point{
				X: wl.extent.Min.X + rng.Float64()*wl.extent.Width(),
				Y: wl.extent.Min.Y + rng.Float64()*wl.extent.Height(),
			}
		}
	}
	// Many clients asking nearly the same question — the shape the server's
	// result cache turns into hits: a rank-k^-s-weighted centre plus a
	// small jitter.
	zipf := rand.NewZipf(rng, wl.zipfS, 1, uint64(len(wl.centres)-1))
	return func() geom.Point {
		c := wl.centres[zipf.Uint64()]
		return geom.Point{
			X: c.X + (rng.Float64()-0.5)*2*hotJitter,
			Y: c.Y + (rng.Float64()-0.5)*2*hotJitter,
		}
	}
}

// zipfCentres makes the source a fixed Zipf hotspot: centres sampled from
// the dataset's segment midpoints (density-biased, like real junctions).
func (wl *workload) zipfCentres(out io.Writer, s float64, n int) {
	rng := rand.New(rand.NewSource(wl.seed))
	cs := make([]geom.Point, n)
	for i := range cs {
		cs[i] = wl.ds.Segments[rng.Intn(wl.ds.Len())].Midpoint()
	}
	wl.zipfS, wl.centres = s, cs
	fmt.Fprintf(out, "mqload: zipf hotspot workload, s=%.2f over %d centers\n", s, n)
}

// fleet is the moving-objects source: vehicles drive shortest-path routes on
// the road network derived from the deterministic dataset, every step a
// MsgMove write of the vehicle's fresh geometry, interleaved with reads near
// the vehicle — the paper's mobile client doing both halves of the work at
// once.
//
// Staleness is measured from the acks themselves: each ack carries the
// owning shard's base epoch, so a vehicle whose consecutive moves ack at the
// same epoch is watching its writes pile up in the overlay; the epoch bump
// rate is writes-folded-per-compaction as the client observes it.
type fleet struct {
	g        *roadnet.Graph
	comp     []int32 // the largest connected component's nodes
	vehs     []*vehicle
	conns    int
	readFrac float64
	readback bool
	// The read-back ledger covers the whole run, warmup included: freshness
	// is a correctness property, not a latency one.
	rbChecked, rbMissed, rbErrs atomic.Uint64
}

// The series of a moving run.
const (
	seriesWrites = iota
	seriesReads
)

// vehicle is one moving object: its wire id (above the base dataset, so it
// never collides with a static segment), the road node it is heading to, and
// the remaining segment ids of its current route.
type vehicle struct {
	id        uint32
	node      int32
	route     []uint32
	lastEpoch uint64
}

// advance steps the vehicle one road segment, routing to a fresh random
// destination in the connected component whenever the current route runs
// out, and returns the segment geometry the vehicle now occupies.
func (v *vehicle) advance(f *fleet, ds *dataset.Dataset, rng *rand.Rand) geom.Segment {
	for len(v.route) == 0 {
		dst := f.comp[rng.Intn(len(f.comp))]
		if dst == v.node {
			continue
		}
		rt, ok := f.g.RouteBetweenNodes(v.node, dst, ops.Null{})
		if !ok || len(rt.SegIDs) == 0 {
			continue
		}
		v.route = rt.SegIDs
		v.node = dst
	}
	segID := v.route[0]
	v.route = v.route[1:]
	return ds.Seg(segID)
}

// placeFleet makes the source a fleet: build the road network and place
// every vehicle one step along a route with a move, its first. The first
// write proves the server is updatable before the clock starts.
func (wl *workload) placeFleet(out io.Writer, vehicles, conns int, readFrac float64, readback bool) error {
	g, err := roadnet.Build(wl.ds, 50, ops.Null{})
	if err != nil {
		return fmt.Errorf("road network: %w", err)
	}
	f := &fleet{g: g, comp: g.LargestComponentNodes(), conns: conns, readFrac: readFrac, readback: readback}
	if len(f.comp) < 2 {
		return fmt.Errorf("road network has no routable component")
	}
	fmt.Fprintf(out, "mqload: moving-objects workload, %d vehicles on %d nodes / %d edges (component %d)\n",
		vehicles, g.Nodes(), g.Edges(), len(f.comp))
	rng := rand.New(rand.NewSource(wl.seed))
	for i := 0; i < vehicles; i++ {
		v := &vehicle{id: uint32(wl.ds.Len() + i), node: f.comp[rng.Intn(len(f.comp))]}
		ack, err := wl.c.Move(v.id, v.advance(f, wl.ds, rng))
		if err != nil {
			return fmt.Errorf("placing vehicle %d: %w", v.id, err)
		}
		v.lastEpoch = ack.Epoch
		f.vehs = append(f.vehs, v)
	}
	wl.fleet, wl.series = f, []string{seriesWrites: "writes", seriesReads: "reads"}
	// The placement stream above used the bare seed; workers start past it.
	wl.seed += 1000
	return nil
}

// move is the fleet's extra step kind: one MsgMove of v to seg, the ack
// folded into the outcome, and — with -readback — the read-your-writes
// check: the move was acked, so a range read over the fresh geometry must
// return this vehicle; a miss means the serving tier's routing or caching
// lags its writes.
func (f *fleet) move(c *client.Client, v *vehicle, seg geom.Segment) outcome {
	var ack client.UpdateAck
	o := timed(func() (err error) { ack, err = c.Move(v.id, seg); return err })
	if o.err != nil {
		return o
	}
	o.notOwned = !ack.Owned
	o.epochBump = ack.Epoch > v.lastEpoch
	v.lastEpoch = ack.Epoch
	if !f.readback {
		return o
	}
	if ids, err := c.RangeIDs(seg.MBR()); err != nil {
		f.rbErrs.Add(1)
	} else {
		f.rbChecked.Add(1)
		if !slices.Contains(ids, v.id) {
			f.rbMissed.Add(1)
		}
	}
	return o
}

// newWorker composes worker w's step: which series the step belongs to and
// what it completed. It returns nil for a worker with nothing to drive (more
// connections than vehicles).
func (wl *workload) newWorker(w int) func() (series int, o outcome) {
	rng := rand.New(rand.NewSource(wl.seed + int64(w)))
	issue := wl.newIssuer()
	if wl.fleet == nil {
		next := wl.newSource(rng)
		return func() (int, outcome) {
			p := next()
			return 0, issue(wl.mix.pick(rng), p)
		}
	}
	// Worker w drives vehicles w, w+conns, w+2*conns, ... — each step one
	// vehicle's move, then (readFrac of the time) a read where it now is.
	f := wl.fleet
	var mine []*vehicle
	for i := w; i < len(f.vehs); i += f.conns {
		mine = append(mine, f.vehs[i])
	}
	if len(mine) == 0 {
		return nil
	}
	k, readAt, reading := 0, geom.Point{}, false
	return func() (int, outcome) {
		if reading {
			reading = false
			return seriesReads, issue(wl.mix.pick(rng), readAt)
		}
		v := mine[k%len(mine)]
		k++
		seg := v.advance(f, wl.ds, rng)
		o := f.move(wl.c, v, seg)
		readAt, reading = seg.MBR().Center(), rng.Float64() < f.readFrac
		return seriesWrites, o
	}
}
