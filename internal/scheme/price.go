package scheme

// One price list: every decider fills AnalyticInputs from a query's work —
// estimated from the index's shape (EstimateWork) or counted by the kernel
// walk that answers it (CountWork; a live local answer is that walk) — and
// prices it with internal/cpu's op table on the Table 3 client and the
// Table 4 server (Prices), the table the simulator's machine models execute.
// The live client charges its processor from the same list.

import (
	"math"

	"mobispatial/internal/cpu"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// Shape is what the work estimator knows of the index a query runs over:
// Items spread uniformly over Extent, a tree of Height levels and Fanout
// entries a node (a zero shape prices one node visit and one MBR test per
// candidate), and the data record each refinement reads.
type Shape struct {
	Items          int
	Extent         geom.Rect
	Height, Fanout int
	RecordBytes    int
}

// Work is one query's filtering and refinement, in the ops internal/core's
// engine charges a machine model for them.
type Work struct {
	Kind QueryKind
	// Filter is the filtering step as a counted rtree.Tree.Search records
	// it: a node visit and a header read per node, an MBR test and an entry
	// read per entry examined, a result append and an id store per
	// candidate.
	Filter ops.Counts
	// Candidates is what filtering passes to refinement, each read as a
	// RecordBytes record; Hits is what refinement keeps.
	Candidates, Hits int64
	RecordBytes      int
}

// EstimateWork predicts q's work over an index of shape s, before touching
// it. A range's candidates are the items its window's share of the extent
// holds at uniform density — clustering makes real counts swing around this,
// and the model only needs the order of magnitude; a point meets the couple
// of streets incident on it; a k-NN search refines a few more than k. Node
// visits are a root-to-leaf path plus the leaves the candidates fill, and
// every visited node's entries are tested.
func EstimateWork(q Query, s Shape) Work {
	cands, hits := int64(2), int64(2)
	switch q.Kind {
	case RangeQuery:
		frac := 0.0
		if a := s.Extent.Area(); a > 0 {
			frac = q.Window.Intersection(s.Extent).Area() / a
		}
		cands = max(int64(math.Ceil(float64(s.Items)*frac)), 1)
		hits = cands
	case NNQuery:
		hits = int64(max(q.K, 1))
		cands = 4 + 2*hits
	}
	fanout := int64(max(s.Fanout, 1))
	visits := int64(s.Height) + (cands+fanout-1)/fanout
	w := Work{Kind: q.Kind, Candidates: cands, Hits: hits, RecordBytes: s.RecordBytes}
	w.Filter.Ops[ops.OpNodeVisit] = visits
	w.Filter.Ops[ops.OpMBRTest] = visits * fanout
	w.Filter.Ops[ops.OpResultAppend] = cands
	w.Filter.LoadBytes = visits * (rtree.HeaderBytes + fanout*rtree.EntryBytes)
	w.Filter.StoreBytes = cands * proto.ObjectIDBytes
	return w
}

// CountWork is EstimateWork's measured counterpart: q's work as internal/core's
// engine runs it over t, counted by the kernel walk that answers it
// (rtree.Tree.AppendRange, AppendPoint, KNearestCollect), which refines from
// the segments t's leaves carry (t must be built from rtree.SegItem items, as
// every serving tree is) and tallies what the instrumented walk records. It
// returns that answer too: a record for each id the walk kept, beside its
// leaf's segment, a k-NN's nearest first. A range's or point's candidates are
// the items its filtering passed on, a k-NN's the exact distances its kernel
// computed. Pricing the work with Inputs gives the cycles the simulator
// charges the same query fully at the client. The walk runs in sc (nil: a
// fresh one), so over a warm scratch the records are its one allocation.
func CountWork(q Query, t *rtree.Tree, recordBytes int, sc *Scratch) (w Work, recs []proto.Record) {
	if sc == nil {
		sc = new(Scratch)
	}
	w = Work{Kind: q.Kind, RecordBytes: recordBytes}
	switch q.Kind {
	case NNQuery:
		// One NN walk, as on the server: 1-NN is k-NN at k = 1.
		w.Candidates = int64(t.KNearestCollect(q.Point, max(q.K, 1), nil, &sc.nn, &w.Filter))
		sc.nbs = sc.nn.DrainKNNAppend(sc.nbs[:0])
		recs = make([]proto.Record, len(sc.nbs))
		for i, nb := range sc.nbs {
			recs[i] = proto.Record{ID: nb.ID, Seg: nb.Seg}
		}
	default:
		sc.segs = sc.segs[:0]
		if q.Kind == PointQuery {
			sc.ids = t.AppendPoint(sc.ids[:0], &sc.segs, q.Point, PointEps, &w.Filter)
		} else {
			sc.ids = t.AppendRange(sc.ids[:0], &sc.segs, q.Window, true, &w.Filter)
		}
		w.Candidates = w.Filter.Ops[ops.OpResultAppend]
		recs = make([]proto.Record, len(sc.ids))
		for i, id := range sc.ids {
			recs[i] = proto.Record{ID: id, Seg: sc.segs[i]}
		}
	}
	w.Hits = int64(len(recs))
	return w, recs
}

// Scratch is what CountWork's walks reuse: the k-NN walk's branch buffers
// and heap, and the buffers an answer is gathered in before its records are
// made. One walk at a time; the zero value is ready.
type Scratch struct {
	nn   rtree.NNScratch
	nbs  []rtree.Neighbor
	ids  []uint32
	segs []geom.Segment
}

// refineOps is each query kind's exact test.
var refineOps = [...]ops.Op{PointQuery: ops.OpRefinePoint, RangeQuery: ops.OpRefineRange, NNQuery: ops.OpRefineNN}

// refine is the refinement step: a record read and the exact test per
// candidate, a result append per hit.
func (w *Work) refine() cost {
	return run(refineOps[w.Kind], w.Candidates).plus(run(ops.OpResultAppend, w.Hits)).
		plus(cost{bytes: float64(w.Candidates) * float64(w.RecordBytes)})
}

// Prices turns work into §4.1 cycles with internal/cpu's op table — the one
// cycle price list.
type Prices struct {
	Client cpu.ClientConfig
	Server cpu.ServerConfig
}

// DefaultPrices prices on Table 3's client and Table 4's server.
func DefaultPrices() Prices {
	return Prices{Client: cpu.DefaultClientConfig(), Server: cpu.DefaultServerConfig()}
}

// opCosts is the table every price is read from.
var opCosts = cpu.DefaultOpCosts()

// cost is work as the machines price it: its instructions under the table
// and the bytes of data it reads or writes.
type cost struct{ instr, bytes float64 }

// run is n executions of op.
func run(op ops.Op, n int64) cost { return cost{instr: float64(n) * float64(opCosts[op].Instr)} }

func (k cost) plus(o cost) cost { return cost{k.instr + o.instr, k.bytes + o.bytes} }

func costOf(c *ops.Counts) (k cost) {
	for op, n := range c.Ops {
		k = k.plus(run(ops.Op(op), n))
	}
	return k.plus(cost{bytes: float64(c.LoadBytes + c.StoreBytes)})
}

func (p *Prices) client(k cost) float64 {
	return k.instr + k.bytes/float64(p.Client.DCache.LineBytes)*float64(p.Client.MemLatency)
}

func (p *Prices) server(k cost) float64 {
	return k.instr / (float64(p.Server.IssueWidth) * p.Server.IPCEfficiency)
}

// ClientCycles prices c on the single-issue client: a cycle per instruction,
// plus the miss allowance — MemLatency for every D-cache line of data c
// reads or writes, as if each were cold.
func (p *Prices) ClientCycles(c ops.Counts) float64 { return p.client(costOf(&c)) }

// ServerCycles prices c on the superscalar server: the same instructions at
// IssueWidth × IPCEfficiency a cycle. Its caches are warm (§5.3), so no
// misses.
func (p *Prices) ServerCycles(c ops.Counts) float64 { return p.server(costOf(&c)) }

// ProtocolCycles prices the client's side of one exchange, sending tx and
// receiving rx, as proto.Transfer.ChargeProcessing charges the simulated
// client: per packet and per payload byte through the stack, the payload and
// its frames through the buffers.
func (p *Prices) ProtocolCycles(tx, rx proto.Transfer) float64 {
	payload, wire := tx.PayloadBytes+rx.PayloadBytes, tx.WireBytes+rx.WireBytes
	return p.client(run(ops.OpProtoPacket, int64(tx.Packets+rx.Packets)).
		plus(run(ops.OpProtoByte, int64(payload))).plus(cost{bytes: float64(payload + wire)}))
}

// FullyLocalCycles prices w executed wholly at the client: Inputs'
// CFullyLocal, without the exchange Inputs prices beside it.
func (p *Prices) FullyLocalCycles(w *Work) float64 {
	return p.client(costOf(&w.Filter).plus(w.refine()))
}

// Inputs prices w as the §4.1 model's two sides: the fully-local execution,
// and s's split of it as internal/core's engine runs it with the data at the
// client, so replies carry ids. FullyServer leaves the client its request
// dispatch; FilterClientRefineServer keeps the filtering and uploads the
// candidate ids. Messages are proto's catalogue; batch > 1 prices
// FullyServer's exchange as one QueryBatch shared by batch queries, each
// paying 1/batch of its bits and protocol cycles. For any other s only the
// fully-local side is filled. The link (BandwidthBps, any round trip to fold
// into CW2) and the client's power table are the caller's.
func (p *Prices) Inputs(s Scheme, w *Work, batch int) AnalyticInputs {
	filter, refine := costOf(&w.Filter), w.refine()
	in := AnalyticInputs{CFullyLocal: p.client(filter.plus(refine)), ServerHz: p.Server.ClockHz}
	if s != FullyServer && s != FilterClientRefineServer {
		return in
	}
	reply := proto.IDListBytes(int(w.Hits))
	// Each end dispatches the request; the server marshals the reply.
	client := run(ops.OpDispatch, 1)
	server := client.plus(run(ops.OpCopyWord, int64(reply/4)))
	tx, rx := proto.Packetize(proto.QueryRequestBytes), proto.Packetize(reply)
	b := 1.0
	switch s {
	case FullyServer:
		server = server.plus(filter).plus(refine)
		if batch > 1 {
			b = float64(batch)
			tx = proto.Packetize(proto.BatchQueryBytes(batch))
			rx = proto.Packetize(proto.BatchIDListBytes(batch, batch*int(w.Hits)))
		}
	case FilterClientRefineServer:
		ids := run(ops.OpCopyWord, w.Candidates) // (un)marshalling the candidate ids
		client = client.plus(filter).plus(ids)
		server = server.plus(refine).plus(ids)
		tx = proto.Packetize(proto.QueryRequestBytes + proto.IDListBytes(int(w.Candidates)))
	}
	in.CLocal = p.client(client)
	in.CW2 = p.server(server)
	in.CProtocol = p.ProtocolCycles(tx, rx) / b
	in.PacketTxBits = float64(tx.WireBytes*8) / b
	in.PacketRxBits = float64(rx.WireBytes*8) / b
	return in
}
