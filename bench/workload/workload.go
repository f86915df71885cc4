// Package workload generates the benchmark's operation streams: the paper's
// §5.4 uniform queries, a Zipf hotspot read mix, density-weighted cluster
// reads, and vehicles moving along shortest-path routes. Every stream is a
// pure function of (workload, seed, worker): the program under test only ever
// sees the generated operations.
//
// This is the benchmark's own copy of the generators in cmd/mqload; mqload is
// left untouched so the benchmark's inputs cannot drift with the tool.
package workload

import (
	"fmt"
	"math/rand"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/roadnet"
)

// Kind is the operation type.
type Kind uint8

// The operation kinds. Move is the only write.
const (
	Point Kind = iota
	Range
	NN
	Move
	NumKinds
)

func (k Kind) String() string {
	return [...]string{"point", "range", "nn", "move", "?"}[min(k, NumKinds)]
}

// Op is one generated operation. It holds no pointers, so a ring of
// operations costs the garbage collector nothing to scan.
type Op struct {
	Kind Kind
	// Data asks for full records (data mode) instead of ids.
	Data bool
	// Readback marks a Move whose fresh geometry is range-read straight
	// after the ack; the answer must contain ID.
	Readback bool
	// K is the neighbour count of an NN query (0 and 1 both mean one).
	K uint16
	// ID is the moved object (Move only).
	ID uint32
	// F is the geometry: Point/NN use F[0:2] as the query point, Range uses
	// all four as the window (min x, min y, max x, max y), Move as the
	// segment (a.x, a.y, b.x, b.y).
	F [4]float64
}

// Pt returns the query point of a Point or NN operation.
func (o *Op) Pt() geom.Point { return geom.Point{X: o.F[0], Y: o.F[1]} }

// Win returns the window of a Range operation.
func (o *Op) Win() geom.Rect {
	return geom.Rect{Min: geom.Point{X: o.F[0], Y: o.F[1]}, Max: geom.Point{X: o.F[2], Y: o.F[3]}}
}

// Seg returns the new geometry of a Move operation.
func (o *Op) Seg() geom.Segment {
	return geom.Segment{A: geom.Point{X: o.F[0], Y: o.F[1]}, B: geom.Point{X: o.F[2], Y: o.F[3]}}
}

func pointOp(k Kind, data bool, p geom.Point) Op {
	return Op{Kind: k, Data: data, F: [4]float64{p.X, p.Y}}
}

func rangeOp(data bool, w geom.Rect) Op {
	return Op{Kind: Range, Data: data, F: [4]float64{w.Min.X, w.Min.Y, w.Max.X, w.Max.Y}}
}

// square is the window of the given half-width centred on c.
func square(c geom.Point, half float64) geom.Rect {
	return geom.Rect{Min: c, Max: c}.Expand(half)
}

// Names lists the workloads in the order the benchmark runs them.
var Names = []string{"static", "hotspot", "moving", "cluster"}

// Fixed parameters of the workloads. They are constants, not flags: a
// benchmark result is only comparable with another run of the same inputs.
const (
	HotspotCentres    = 64
	hotspotCentreSeed = 1
	HotspotZipfS      = 1.5
	HotspotJitterM    = 64.0
	RangeHalfM        = 1000.0 // hotspot and cluster range half-width
	Vehicles          = 64
	MovingRangeM      = 500.0 // moving range half-width
	ReadbackEvery     = 16
	ClusterK          = 8
	RoadSnapM         = 50.0
)

// mix is a cumulative percentage table over Point, Range, NN.
type mix [3]int

func (m mix) pick(rng *rand.Rand) Kind {
	n := rng.Intn(100)
	switch {
	case n < m[0]:
		return Point
	case n < m[0]+m[1]:
		return Range
	}
	return NN
}

// The read mixes, point / range / nn percent.
var (
	staticMix  = mix{60, 25, 15}
	hotspotMix = mix{60, 25, 15}
	movingMix  = mix{40, 40, 20}
	clusterMix = mix{50, 30, 20}
)

// Source is shared, read-only input of the generators: the dataset and, for
// the moving workload, the road network derived from it.
type Source struct {
	DS   *dataset.Dataset
	Road *roadnet.Graph
	comp []int32
}

// NewSource prepares the generators' input for one workload. Only "moving"
// pays for the road network.
func NewSource(name string, ds *dataset.Dataset) (*Source, error) {
	s := &Source{DS: ds}
	if name != "moving" {
		return s, nil
	}
	g, err := roadnet.Build(ds, RoadSnapM, ops.Null{})
	if err != nil {
		return nil, fmt.Errorf("workload: road network: %w", err)
	}
	s.Road, s.comp = g, g.LargestComponentNodes()
	if len(s.comp) < 2 {
		return nil, fmt.Errorf("workload: road network has no routable component")
	}
	return s, nil
}

// Gen is one worker's operation stream. Fill may be called any number of
// times; the stream is a function of the seed, the worker and the sequence of
// ring lengths, all of which the benchmark fixes.
type Gen struct {
	src  *Source
	rng  *rand.Rand
	fill func(g *Gen, ring []Op)

	// hotspot
	centres []geom.Point
	zipf    *rand.Zipf

	// moving
	vehs    []vehicle
	next    int // round-robin cursor over vehs
	step    int // moves generated so far, for the read-back cadence
	pend    Op  // a read generated with its move that did not fit the ring
	hasPend bool
}

// vehicle is one moving object: its wire id (above the base dataset, so it
// never collides with a static segment), the road node it is heading to, and
// the remaining segment ids of its current route.
type vehicle struct {
	id    uint32
	node  int32
	route []uint32
}

// New returns worker w's stream (of nWorkers) for the named workload.
// Distinct (seed, w) give independent streams; the same pair always gives
// the same one.
func New(name string, src *Source, seed int64, w, nWorkers int) (*Gen, error) {
	g := &Gen{src: src, rng: rand.New(rand.NewSource(seed*1000003 + int64(w)*7919 + 17))}
	switch name {
	case "static":
		g.fill = (*Gen).fillStatic
	case "hotspot":
		// The hot junctions are part of the workload, like the dataset: the
		// same 64 for every seed and worker. Which of them a seed makes hot
		// would otherwise decide the reply sizes, and with them every metric
		// (wire bytes per query ran from 240 to 470 over ten seeds).
		hrng := rand.New(rand.NewSource(hotspotCentreSeed))
		g.centres = make([]geom.Point, HotspotCentres)
		for i := range g.centres {
			g.centres[i] = src.DS.Segments[hrng.Intn(src.DS.Len())].Midpoint()
		}
		g.zipf = rand.NewZipf(g.rng, HotspotZipfS, 1, HotspotCentres-1)
		g.fill = (*Gen).fillHotspot
	case "cluster":
		g.fill = (*Gen).fillCluster
	case "moving":
		if src.Road == nil {
			return nil, fmt.Errorf("workload: moving needs a Source built for it")
		}
		// Worker w drives vehicles w, w+n, w+2n, ...
		for i := w; i < Vehicles; i += nWorkers {
			g.vehs = append(g.vehs, vehicle{
				id:   uint32(src.DS.Len() + i),
				node: src.comp[g.rng.Intn(len(src.comp))],
			})
		}
		g.fill = (*Gen).fillMoving
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	return g, nil
}

// Fill overwrites ring with the next len(ring) operations of the stream.
func (g *Gen) Fill(ring []Op) { g.fill(g, ring) }

// Place returns one Move per vehicle of this stream, the geometry each
// vehicle starts at; the caller inserts them before the run. Empty for the
// read-only workloads.
func (g *Gen) Place() []Op {
	out := make([]Op, len(g.vehs))
	for i := range g.vehs {
		v := &g.vehs[i]
		sg := g.advance(v)
		out[i] = Op{Kind: Move, ID: v.id, F: [4]float64{sg.A.X, sg.A.Y, sg.B.X, sg.B.Y}}
	}
	return out
}

// fillStatic draws the paper's §5.4 distributions through the dataset
// package's own generators, so the benchmark and the simulator agree on what
// a "point", "range" and "NN" query is. Point and range answer in id mode,
// NN in data mode.
func (g *Gen) fillStatic(ring []Op) {
	var n [NumKinds]int
	for i := range ring {
		k := staticMix.pick(g.rng)
		ring[i].Kind = k
		n[k]++
	}
	pts := dataset.PointQueries(g.src.DS, n[Point], g.rng.Int63())
	wins := dataset.RangeQueries(g.src.DS, n[Range], g.rng.Int63())
	nns := dataset.NNQueries(g.src.DS, n[NN], g.rng.Int63())
	for i := range ring {
		switch ring[i].Kind {
		case Point:
			ring[i], pts = pointOp(Point, false, pts[0]), pts[1:]
		case Range:
			ring[i], wins = rangeOp(false, wins[0]), wins[1:]
		default:
			ring[i], nns = pointOp(NN, true, nns[0]), nns[1:]
		}
	}
}

// fillHotspot lands every query near a rank-k^-s-weighted centre with a
// small jitter: many clients asking nearly the same question, the shape the
// server's result cache turns into hits. The jitter keeps a centre's
// queries inside a handful of the cache's 512-unit snapping cells.
func (g *Gen) fillHotspot(ring []Op) {
	for i := range ring {
		c := g.centres[g.zipf.Uint64()]
		p := geom.Point{
			X: c.X + (g.rng.Float64()-0.5)*2*HotspotJitterM,
			Y: c.Y + (g.rng.Float64()-0.5)*2*HotspotJitterM,
		}
		switch hotspotMix.pick(g.rng) {
		case Point:
			ring[i] = pointOp(Point, false, p)
		case Range:
			ring[i] = rangeOp(false, square(p, RangeHalfM))
		default:
			ring[i] = pointOp(NN, true, p)
		}
	}
}

// fillCluster centres every query on a random segment midpoint, so dense
// regions (and the backends that own them) receive more of the load.
func (g *Gen) fillCluster(ring []Op) {
	ds := g.src.DS
	for i := range ring {
		p := ds.Segments[g.rng.Intn(ds.Len())].Midpoint()
		switch clusterMix.pick(g.rng) {
		case Point:
			ring[i] = pointOp(Point, false, p)
		case Range:
			ring[i] = rangeOp(false, square(p, RangeHalfM))
		default:
			ring[i] = pointOp(NN, true, p)
			ring[i].K = ClusterK
		}
	}
}

// advance steps the vehicle one road segment, routing to a fresh random
// destination in the connected component whenever the current route runs
// out, and returns the segment the vehicle now occupies.
func (g *Gen) advance(v *vehicle) geom.Segment {
	for len(v.route) == 0 {
		dst := g.src.comp[g.rng.Intn(len(g.src.comp))]
		if dst == v.node {
			continue
		}
		rt, ok := g.src.Road.RouteBetweenNodes(v.node, dst, ops.Null{})
		if !ok || len(rt.SegIDs) == 0 {
			continue
		}
		v.route, v.node = rt.SegIDs, dst
	}
	id := v.route[0]
	v.route = v.route[1:]
	return g.src.DS.Seg(id)
}

// fillMoving alternates one Move with one read at the vehicle's new
// position, round-robin over this worker's vehicles.
func (g *Gen) fillMoving(ring []Op) {
	for i := 0; i < len(ring); {
		if g.hasPend {
			ring[i], g.hasPend = g.pend, false
			i++
			continue
		}
		v := &g.vehs[g.next%len(g.vehs)]
		g.next++
		sg := g.advance(v)
		g.step++
		ring[i] = Op{Kind: Move, ID: v.id, Readback: g.step%ReadbackEvery == 0,
			F: [4]float64{sg.A.X, sg.A.Y, sg.B.X, sg.B.Y}}
		i++
		p := sg.MBR().Center()
		var rd Op
		switch movingMix.pick(g.rng) {
		case Point:
			rd = pointOp(Point, false, p)
		case Range:
			rd = rangeOp(true, square(p, MovingRangeM))
		default:
			rd = pointOp(NN, true, p)
		}
		if i < len(ring) {
			ring[i] = rd
			i++
		} else {
			g.pend, g.hasPend = rd, true
		}
	}
}
