package client

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
)

// Shipment is the client-resident outcome of a Fig. 2 shipment: a packed
// sub-index rebuilt over the shipped records, whose leaves are the one copy
// of them. Queries whose geometry falls inside Coverage can be answered
// entirely at the client — the fully-client scheme made real.
type Shipment struct {
	// Coverage is the server's guarantee rectangle; empty means no
	// guarantee (the answer alone overflowed the budget).
	Coverage geom.Rect
	// Epoch is the server's index epoch hint read before the shipment was
	// cut; 0 when the server gave none (a pool with no validity view) or the
	// caller built the shipment itself. Only a non-zero epoch can be
	// compared against later reply hints, so only such a shipment is ever
	// answered from by choice (local.go).
	Epoch uint64
	// Tree is the packed R-tree rebuilt over the shipped records; its leaves
	// carry each record's segment.
	Tree *rtree.Tree
	// byID lists the pack positions of Tree's leaves in ascending id order:
	// records resolves a server's id list through it at 4 B a record.
	byID []uint32
	// recordBytes is the record size the shipment was built with: what the
	// planner prices each local refinement reading.
	recordBytes int
	// scratch holds the *scheme.Scratch local answers walk in, one per
	// concurrent answer.
	scratch sync.Pool
}

// FetchShipment requests a shipment covering window under budgetBytes of
// client memory (recordBytes sizes the server's capacity math; use the
// dataset's record size), rebuilds the sub-index locally and installs it as
// the client's local state, replacing — and un-retiring — whatever was there.
func (c *Client) FetchShipment(window geom.Rect, budgetBytes, recordBytes int) (*Shipment, error) {
	asked, writes := time.Now(), c.writes.Load()
	sm, err := call[*proto.ShipmentMsg](c, &proto.ShipmentReqMsg{
		Window:      window,
		BudgetBytes: uint32(budgetBytes),
		RecordBytes: uint32(recordBytes),
	}, time.Time{}, 0, nil)
	if err != nil {
		return nil, err
	}
	ship, err := NewShipment(sm, recordBytes)
	if err != nil {
		return nil, err
	}
	c.install(ship, asked)
	if c.writes.Load() != writes {
		// One of this client's own writes was acked while the shipment was
		// in flight; the shipment may predate it. update retires whatever
		// is installed after bumping the counter, so between that and this
		// check no interleaving leaves the shipment live.
		c.retire()
	}
	return ship, nil
}

// NewShipment builds the client-resident shipment from its wire message:
// the client pays the sub-index rebuild instead of shipping raw node bytes
// (same structure — the packed build is deterministic). recordBytes is the
// dataset's record size, what each local refinement is charged for reading.
func NewShipment(sm *proto.ShipmentMsg, recordBytes int) (*Shipment, error) {
	if len(sm.Records) == 0 {
		return nil, fmt.Errorf("client: empty shipment")
	}
	items := make([]rtree.Item, len(sm.Records))
	for i, r := range sm.Records {
		items[i] = rtree.SegItem(r.Seg, r.ID)
	}
	tree, err := rtree.Build(items, rtree.Config{}, ops.Null{})
	if err != nil {
		return nil, fmt.Errorf("client: rebuilding shipped sub-index: %w", err)
	}
	leaves := tree.PackOrder()
	byID := make([]uint32, len(leaves))
	for i := range byID {
		byID[i] = uint32(i)
	}
	slices.SortFunc(byID, func(a, b uint32) int { return cmp.Compare(leaves[a].ID, leaves[b].ID) })
	return &Shipment{Coverage: sm.Coverage, Epoch: sm.Epoch, Tree: tree, byID: byID, recordBytes: recordBytes}, nil
}

// Len returns the number of shipped records.
func (s *Shipment) Len() int { return s.Tree.Len() }

// Covers reports whether the shipment's guarantee extends to q: range
// windows must be contained in Coverage; point and NN queries need their
// point inside it (for NN the guarantee is heuristic near the coverage
// boundary — the true nearest segment could lie just outside; callers
// wanting exactness shrink the coverage by their tolerance).
func (s *Shipment) Covers(q scheme.Query) bool {
	if s.Coverage.IsEmpty() {
		return false
	}
	if q.Kind == scheme.RangeQuery {
		return s.Coverage.ContainsRect(q.Window)
	}
	return s.Coverage.ContainsPoint(q.Point)
}

// Answer executes q fully at the client against the shipped sub-index and
// records — filtering and refinement, exactly the paper's fully-client
// scheme, refined from the segments the sub-index's leaves carry as on the
// server. A point query's incidence tolerance is scheme.PointEps, the one
// the server refines with: eps may be 0 or that value, any other is refused.
// The caller is responsible for checking Covers first. Over a warm shipment
// the returned records are the answer's one allocation.
func (s *Shipment) Answer(q scheme.Query, eps float64) ([]proto.Record, error) {
	if eps > 0 && eps != scheme.PointEps {
		return nil, fmt.Errorf("client: a local point query refines at eps %g, not %g", scheme.PointEps, eps)
	}
	_, recs, err := s.answer(q)
	return recs, err
}

// answer is Answer, with the work its one kernel walk counted
// (scheme.CountWork): what Client.runLocal charges.
func (s *Shipment) answer(q scheme.Query) (scheme.Work, []proto.Record, error) {
	if q.Kind > scheme.NNQuery {
		return scheme.Work{}, nil, fmt.Errorf("client: unknown query kind %v", q.Kind)
	}
	sc, _ := s.scratch.Get().(*scheme.Scratch)
	if sc == nil {
		sc = new(scheme.Scratch)
	}
	w, recs := scheme.CountWork(q, s.Tree, s.recordBytes, sc)
	s.scratch.Put(sc)
	return w, recs, nil
}

// records materializes a server id list from the shipped records; ok is
// false when an id was not shipped.
func (s *Shipment) records(ids []uint32) (recs []proto.Record, ok bool) {
	leaves := s.Tree.PackOrder()
	recs = make([]proto.Record, len(ids))
	for i, id := range ids {
		j, shipped := slices.BinarySearchFunc(s.byID, id, func(pos, id uint32) int { return cmp.Compare(leaves[pos].ID, id) })
		if !shipped {
			return nil, false
		}
		recs[i] = proto.Record{ID: id, Seg: leaves[s.byID[j]].Seg()}
	}
	return recs, true
}
