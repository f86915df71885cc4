// Package core implements the paper's contribution: the work-partitioning
// schemes for mobile spatial queries (§4, Table 1). A query's execution is
// split at the filtering/refinement boundary between a resource-constrained
// mobile client and a resource-rich server across a wireless link, and every
// scheme is executed against the full machine models (internal/sim) to
// produce the client's energy breakdown and end-to-end cycle count.
//
// The queries, the adequate-memory schemes (§4, §6.1) and the §4.1 analytic
// model are internal/scheme's; this package is the engine that runs them.
// Insufficient-memory schemes (§4, §6.2) live in insufficient.go.
package core

import (
	"fmt"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/index"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
	"mobispatial/internal/sim"
)

// The query and scheme vocabulary is internal/scheme's, where the live client
// reaches it without linking the simulator; these are its names here.
type (
	QueryKind = scheme.QueryKind
	Query     = scheme.Query
	Scheme    = scheme.Scheme
)

// The query types of §3, the adequate-memory schemes of Table 1, and the
// point query's incidence tolerance.
const (
	PointQuery = scheme.PointQuery
	RangeQuery = scheme.RangeQuery
	NNQuery    = scheme.NNQuery

	FullyClient              = scheme.FullyClient
	FullyServer              = scheme.FullyServer
	FilterClientRefineServer = scheme.FilterClientRefineServer
	FilterServerRefineClient = scheme.FilterServerRefineClient

	PointEps = scheme.PointEps
)

// The query constructors.
func Point(p geom.Point) Query           { return scheme.Point(p) }
func Range(w geom.Rect) Query            { return scheme.Range(w) }
func Nearest(p geom.Point) Query         { return scheme.Nearest(p) }
func KNearest(p geom.Point, k int) Query { return scheme.KNearest(p, k) }

// DataPlacement says whether the data records are replicated on the client.
// With the data present the server can answer with 4-byte object ids instead
// of full records — the message-size optimization §6.1.1 evaluates.
type DataPlacement uint8

// Data placement choices of Table 1.
const (
	DataAtClient DataPlacement = iota
	DataAtServerOnly
)

// String implements fmt.Stringer.
func (p DataPlacement) String() string {
	if p == DataAtClient {
		return "data-at-client"
	}
	return "data-at-server-only"
}

// Engine executes queries under the different schemes against one dataset,
// one access method, and one simulated system. It is not safe for concurrent
// use — experiments build one Engine per sweep point.
type Engine struct {
	DS *dataset.Dataset
	// Tree is the access method used for the filtering step; the paper's
	// experiments use the packed R-tree, and the index-comparison bench
	// swaps in the alternatives (PMR quadtree, insertion-built R-tree).
	Tree index.Index
	// Master is the packed R-tree behind the insufficient-memory schemes,
	// which need its Fig. 2 subset extraction; nil when the engine was
	// built over a different access method.
	Master *rtree.Tree
	Sys    *sim.System
}

// NewEngine builds an Engine over a dataset with a freshly bulk-loaded
// master index. The bulk load itself is not charged to either machine
// (the paper treats index construction as an offline, one-time cost).
func NewEngine(ds *dataset.Dataset, sys *sim.System) (*Engine, error) {
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		return nil, err
	}
	return &Engine{DS: ds, Tree: tree, Master: tree, Sys: sys}, nil
}

// NewEngineWithTree builds an Engine around an existing master index. Tree
// traversals are read-only, so one tree can safely back many engines
// (the experiment harness shares one index across parallel sweep points).
func NewEngineWithTree(ds *dataset.Dataset, tree *rtree.Tree, sys *sim.System) *Engine {
	return &Engine{DS: ds, Tree: tree, Master: tree, Sys: sys}
}

// NewEngineWithIndex builds an Engine over an arbitrary access method. Only
// the adequate-memory schemes are available (the insufficient-memory
// shipment algorithm is defined on the packed R-tree).
func NewEngineWithIndex(ds *dataset.Dataset, idx index.Index, sys *sim.System) *Engine {
	return &Engine{DS: ds, Tree: idx, Sys: sys}
}

// Answer is a query's result: matching segment ids (or the single nearest
// id for NN queries). Schemes must agree on it — tests verify they do.
type Answer struct {
	IDs []uint32
	// NNDist is the nearest distance for NN queries.
	NNDist float64
}

// Run executes q under the given scheme and data placement, charging all
// work to the engine's simulated system, and returns the answer. NN queries
// support only FullyClient and FullyServer (§6.1.1: no phases to split);
// other schemes return an error for them.
func (e *Engine) Run(q Query, s Scheme, placement DataPlacement) (Answer, error) {
	if q.Kind == NNQuery && q.K > 1 {
		if _, ok := e.Tree.(kNearester); !ok {
			return Answer{}, fmt.Errorf("core: access method %T does not support k-NN", e.Tree)
		}
	}
	switch s {
	case FullyClient:
		return e.runFullyClient(q), nil
	case FullyServer:
		return e.runFullyServer(q, placement), nil
	case FilterClientRefineServer:
		if q.Kind == NNQuery {
			return Answer{}, fmt.Errorf("core: NN query has no filter/refine split")
		}
		return e.runFilterClientRefineServer(q, placement), nil
	case FilterServerRefineClient:
		if q.Kind == NNQuery {
			return Answer{}, fmt.Errorf("core: NN query has no filter/refine split")
		}
		if placement != DataAtClient {
			return Answer{}, fmt.Errorf("core: %v requires the data at the client", s)
		}
		return e.runFilterServerRefineClient(q), nil
	}
	return Answer{}, fmt.Errorf("core: unknown scheme %v", s)
}

// filter runs the filtering step of q on rec and returns candidate ids.
func (e *Engine) filter(q Query, rec ops.Recorder) []uint32 {
	switch q.Kind {
	case PointQuery:
		return e.Tree.SearchPoint(q.Point, rec)
	default:
		return e.Tree.Search(q.Window, rec)
	}
}

// refine runs the refinement step over candidates on rec. recordAddr maps a
// candidate id to the address its record is read from (local data copy vs a
// receive buffer). It returns the exact answer ids.
func (e *Engine) refine(q Query, candidates []uint32, rec ops.Recorder, recordAddr func(uint32) uint64) []uint32 {
	hits := candidates[:0:0]
	for _, id := range candidates {
		// Refinement decodes the whole data record (geometry plus the
		// attributes a road-atlas answer carries).
		rec.Load(recordAddr(id), e.DS.RecordBytes)
		s := e.DS.Seg(id)
		var hit bool
		switch q.Kind {
		case PointQuery:
			rec.Op(ops.OpRefinePoint, 1)
			hit = s.ContainsPoint(q.Point, PointEps)
		default:
			rec.Op(ops.OpRefineRange, 1)
			hit = s.IntersectsRect(q.Window)
		}
		if hit {
			rec.Op(ops.OpResultAppend, 1)
			hits = append(hits, id)
		}
	}
	return hits
}

// kNearester is satisfied by access methods offering k-NN search (the
// R-tree variants).
type kNearester interface {
	KNearest(p geom.Point, k int, dist index.DistFunc, rec ops.Recorder) []rtree.Neighbor
}

// nearest runs the (unsplit) NN or k-NN query on rec.
func (e *Engine) nearest(q Query, rec ops.Recorder, recordAddr func(uint32) uint64) Answer {
	dist := func(id uint32) float64 {
		rec.Load(recordAddr(id), e.DS.RecordBytes)
		rec.Op(ops.OpRefineNN, 1)
		return e.DS.Seg(id).DistToPoint(q.Point)
	}
	if q.K > 1 {
		neighbors := e.Tree.(kNearester).KNearest(q.Point, q.K, dist, rec)
		if len(neighbors) == 0 {
			return Answer{}
		}
		ans := Answer{NNDist: neighbors[0].Dist}
		for _, nb := range neighbors {
			ans.IDs = append(ans.IDs, nb.ID)
		}
		return ans
	}
	id, d, ok := e.Tree.Nearest(q.Point, dist, rec)
	if !ok {
		return Answer{}
	}
	return Answer{IDs: []uint32{id}, NNDist: d}
}

// localRecordAddr reads records from the client/server-resident dataset
// region.
func (e *Engine) localRecordAddr(id uint32) uint64 { return e.DS.RecordAddr(id) }

// runFullyClient executes everything on the client; the NIC sleeps
// throughout (§4: w2 = 0).
func (e *Engine) runFullyClient(q Query) Answer {
	var ans Answer
	e.Sys.ClientCompute(func(rec ops.Recorder) {
		if q.Kind == NNQuery {
			ans = e.nearest(q, rec, e.localRecordAddr)
			return
		}
		cands := e.filter(q, rec)
		ans.IDs = e.refine(q, cands, rec, e.localRecordAddr)
	})
	return ans
}

// runFullyServer ships the query; the server filters and refines; the reply
// carries records (data absent) or ids (data present).
func (e *Engine) runFullyServer(q Query, placement DataPlacement) Answer {
	e.Sys.ClientCompute(func(rec ops.Recorder) { rec.Op(ops.OpDispatch, 1) })
	e.Sys.Send(QueryRequestBytesFor(q))

	var ans Answer
	e.Sys.ServerCompute(func(rec ops.Recorder) {
		rec.Op(ops.OpDispatch, 1)
		if q.Kind == NNQuery {
			ans = e.nearest(q, rec, e.localRecordAddr)
			return
		}
		cands := e.filter(q, rec)
		ans.IDs = e.refine(q, cands, rec, e.localRecordAddr)
		// Marshal the reply payload.
		rec.Op(ops.OpCopyWord, replyBytes(len(ans.IDs), placement, e.DS.RecordBytes)/4)
	})

	e.Sys.Receive(replyBytes(len(ans.IDs), placement, e.DS.RecordBytes))
	return ans
}

// runFilterClientRefineServer filters locally, ships the candidate id list,
// and receives the refined answer (w1 = filtering, w2 = refinement).
func (e *Engine) runFilterClientRefineServer(q Query, placement DataPlacement) Answer {
	var cands []uint32
	e.Sys.ClientCompute(func(rec ops.Recorder) {
		rec.Op(ops.OpDispatch, 1)
		cands = e.filter(q, rec)
		rec.Op(ops.OpCopyWord, len(cands)) // marshal candidate ids
	})
	e.Sys.Send(QueryRequestBytesFor(q) + IDListBytes(len(cands)))

	var ans Answer
	e.Sys.ServerCompute(func(rec ops.Recorder) {
		rec.Op(ops.OpDispatch, 1)
		rec.Op(ops.OpCopyWord, len(cands)) // unmarshal candidate ids
		ans.IDs = e.refine(q, cands, rec, e.localRecordAddr)
		rec.Op(ops.OpCopyWord, replyBytes(len(ans.IDs), placement, e.DS.RecordBytes)/4)
	})

	e.Sys.Receive(replyBytes(len(ans.IDs), placement, e.DS.RecordBytes))
	return ans
}

// runFilterServerRefineClient ships the query, receives candidate ids from
// the server's filtering, and refines locally against the client's data
// copy (w2 = filtering, w3 = refinement).
func (e *Engine) runFilterServerRefineClient(q Query) Answer {
	e.Sys.ClientCompute(func(rec ops.Recorder) { rec.Op(ops.OpDispatch, 1) })
	e.Sys.Send(QueryRequestBytesFor(q))

	var cands []uint32
	e.Sys.ServerCompute(func(rec ops.Recorder) {
		rec.Op(ops.OpDispatch, 1)
		cands = e.filter(q, rec)
		rec.Op(ops.OpCopyWord, len(cands))
	})
	e.Sys.Receive(IDListBytes(len(cands)))

	var ans Answer
	e.Sys.ClientCompute(func(rec ops.Recorder) {
		rec.Op(ops.OpCopyWord, len(cands))
		ans.IDs = e.refine(q, cands, rec, e.localRecordAddr)
	})
	return ans
}

// replyBytes is the refined-answer payload: ids when the client holds the
// data, full records otherwise.
func replyBytes(hits int, placement DataPlacement, recordBytes int) int {
	if placement == DataAtClient {
		return IDListBytes(hits)
	}
	return DataListBytes(hits, recordBytes)
}
