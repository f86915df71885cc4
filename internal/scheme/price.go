package scheme

// One price list: every decider fills AnalyticInputs from a query's work —
// estimated from the index's shape (EstimateWork) or counted by the walk
// that ran (CountWork; for a live range or point answer, the kernel walk
// that answered it) — and prices it with internal/cpu's op table on the
// Table 3 client and the Table 4 server (Prices), the table the simulator's
// machine models execute. The live client charges its processor from the
// same list.

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
// engine runs it over t, counted. A range or point query is one kernel walk
// (rtree.Tree.AppendRange, AppendPoint) that tallies what the instrumented
// walk records for its filtering and refines its candidates from the
// segments t's leaves carry (t must be built from rtree.SegItem items, as
// every serving tree is); Kept reads its candidates and hits. A k-NN search
// has no separate filtering: the instrumented walk records its descent, and
// its candidates are the items whose distance it asked seg for. Pricing the
// result with Inputs gives the cycles the simulator charges the same query
// fully at the client.
func CountWork(q Query, t *rtree.Tree, seg func(id uint32) geom.Segment, recordBytes int) Work {
	w := Work{Kind: q.Kind, RecordBytes: recordBytes}
	switch q.Kind {
	case NNQuery:
		dist := func(id uint32) float64 {
			w.Candidates++
			return seg(id).DistToPoint(q.Point)
		}
		if q.K > 1 {
			w.Hits = int64(len(t.KNearest(q.Point, q.K, dist, &w.Filter)))
		} else if _, _, ok := t.Nearest(q.Point, dist, &w.Filter); ok {
			w.Hits = 1
		}
	case PointQuery:
		w.Kept(len(t.AppendPoint(nil, nil, q.Point, PointEps, &w.Filter)))
	default:
		w.Kept(len(t.AppendRange(nil, nil, q.Window, true, &w.Filter)))
	}
	return w
}

// Kept completes the work of a range or point kernel walk that tallied its
// filtering into w.Filter and kept hits items: its candidates are the
// result appends the filtering counted.
func (w *Work) Kept(hits int) {
	w.Candidates, w.Hits = w.Filter.Ops[ops.OpResultAppend], int64(hits)
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
	default:
		return in
	}
	in.CLocal = p.client(client)
	in.CW2 = p.server(server)
	in.CProtocol = p.ProtocolCycles(tx, rx) / b
	in.PacketTxBits = float64(tx.WireBytes*8) / b
	in.PacketRxBits = float64(rx.WireBytes*8) / b
	return in
}
