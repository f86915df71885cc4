// Package scheme is the vocabulary of the paper's question and the one place
// it is answered: what a query is (§3), which work-partitioning schemes can
// run it (§4, Table 1), what the §4.1 analytic model predicts each would cost
// the client (AnalyticInputs → Estimate), priced from a query's work with
// the one cycle price list (EstimateWork, Prices), and which one to run
// (Choose). It knows neither platform: the simulated engine (internal/core)
// and the live planner (internal/serve/client) each bring their own link and
// power table, and the serving binaries link no simulator to do it.
package scheme

import (
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// QueryKind selects one of the three road-atlas query types of §3.
type QueryKind uint8

// The query types studied by the paper.
const (
	// PointQuery finds all segments incident on a point (what street is
	// this?).
	PointQuery QueryKind = iota
	// RangeQuery finds all segments intersecting a window (magnify a map
	// region).
	RangeQuery
	// NNQuery finds the nearest segment to a point (closest street to a
	// landmark). It has no separate filtering/refinement phases.
	NNQuery
)

var kindNames = [...]string{"point", "range", "nn"}

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "QueryKind(?)"
}

// Query is one spatial query.
type Query struct {
	Kind QueryKind
	// Point is the query point for PointQuery and NNQuery.
	Point geom.Point
	// Window is the query window for RangeQuery.
	Window geom.Rect
	// K is the neighbor count for NNQuery; 0 and 1 both mean the classic
	// single nearest neighbor. k > 1 is the k-NN extension (§7 future
	// work) and needs an access method that supports it (the R-trees do;
	// the PMR quadtree does not).
	K int
}

// Point returns a point query.
func Point(p geom.Point) Query { return Query{Kind: PointQuery, Point: p} }

// Range returns a range query.
func Range(w geom.Rect) Query { return Query{Kind: RangeQuery, Window: w} }

// Nearest returns a nearest-neighbor query.
func Nearest(p geom.Point) Query { return Query{Kind: NNQuery, Point: p} }

// KNearest returns a k-nearest-neighbor query.
func KNearest(p geom.Point, k int) Query { return Query{Kind: NNQuery, Point: p, K: k} }

// Scheme enumerates the work-partitioning strategies of Table 1.
type Scheme uint8

// The adequate-memory schemes (§4, §6.1).
const (
	// FullyClient filters and refines on the client (w2 = 0); it needs the
	// index and data locally.
	FullyClient Scheme = iota
	// FullyServer ships the query; the server filters and refines and
	// returns full data records (data absent at client) or just object ids
	// (data present).
	FullyServer
	// FilterClientRefineServer filters on the client's local index and sends
	// the candidate ids; the server refines and returns records or ids.
	FilterClientRefineServer
	// FilterServerRefineClient has the server filter and return candidate
	// ids; the client refines against its local data copy.
	FilterServerRefineClient
)

var schemeNames = [...]string{
	"fully-client",
	"fully-server",
	"filter-client-refine-server",
	"filter-server-refine-client",
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return "Scheme(?)"
}

// PointEps is the incidence tolerance of the point query's refinement step,
// in map units (meters): a street is "at" the queried point when it passes
// within this distance. Map rendering pixels are a few meters at street
// zoom. One value with the wire's default (proto.DefaultPointEps), so the
// simulator and a live server refine a point query alike.
const PointEps = proto.DefaultPointEps
