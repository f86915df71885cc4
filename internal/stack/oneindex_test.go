package stack

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/scheme"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// TestReadsMatchTheFrozenEngine: mqserve's one pool answers every read as
// the frozen engine over one whole-map tree did. Seeded windows, points and
// k-NN go in every mode, one at a time and batched, to stack.Server{} and
// to a server over shard.Over(tree); ids, records and neighbours (in
// nearest-first order, so their distances) come back identical. Only the
// epoch hint on the reply may differ.
func TestReadsMatchTheFrozenEngine(t *testing.T) {
	ds := dataset.PA()
	_, _, pool, _ := build(t, Server{Dataset: ds}, ds)
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	frozenPool, err := shard.Over(tree)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Pool: frozenPool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	frozen := dialServer(t, srv)

	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 150; i++ {
		pt := ds.Segments[rng.Intn(ds.Len())].A
		if i%3 == 0 {
			pt = geom.Point{X: ds.Extent.Min.X + rng.Float64()*ds.Extent.Width(), Y: ds.Extent.Min.Y + rng.Float64()*ds.Extent.Height()}
		}
		w := geom.Rect{Min: pt, Max: pt}.Expand(20 + rng.Float64()*1500)
		k := 1 + rng.Intn(12)
		single := []struct {
			name string
			read func(*client.Client) (any, error)
		}{
			{"range", func(c *client.Client) (any, error) { return c.Range(w) }},
			{"range ids", func(c *client.Client) (any, error) { return c.RangeIDs(w) }},
			{"range filter", func(c *client.Client) (any, error) { return c.FilterRange(w) }},
			{"point", func(c *client.Client) (any, error) { return c.Point(pt, 0) }},
			{"point ids", func(c *client.Client) (any, error) { return c.PointIDs(pt, 0) }},
			{"nn", func(c *client.Client) (any, error) { return c.Nearest(pt) }},
			{"knn", func(c *client.Client) (any, error) { return c.KNearest(pt, k) }},
		}
		for _, r := range single {
			got, errG := r.read(pool)
			want, errW := r.read(frozen)
			if errG != nil || errW != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d %s: pool %v (%v), frozen %v (%v)", i, r.name, got, errG, want, errW)
			}
		}
		var batch []proto.QueryMsg
		for _, mode := range []proto.Mode{proto.ModeData, proto.ModeIDs, proto.ModeFilter} {
			batch = append(batch,
				proto.QueryMsg{Kind: proto.KindRange, Mode: mode, Window: w},
				proto.QueryMsg{Kind: proto.KindPoint, Mode: mode, Point: pt})
			if mode != proto.ModeFilter {
				batch = append(batch, proto.QueryMsg{Kind: proto.KindNN, Mode: mode, Point: pt, K: uint16(k)})
			}
		}
		got, errG := pool.QueryBatch(batch)
		want, errW := frozen.QueryBatch(batch)
		if errG != nil || errW != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: pool %v (%v), frozen %v (%v)", i, got, errG, want, errW)
		}
	}
}

// dialServer serves srv on a loopback port and dials it.
func dialServer(t *testing.T, srv *serve.Server) *client.Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	c, err := client.New(client.Config{Addr: lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// shipCases are the shipment requests the shipment tests make of PA: a
// window that grows to its budget, one that grows past the whole map, an
// empty window (centred on the index), and windows whose own answer
// overflows the budget.
func shipCases(ds *dataset.Dataset) []struct {
	window geom.Rect
	budget int
} {
	c := ds.Extent.Center()
	at := geom.Rect{Min: c, Max: c}
	corner := geom.Rect{Min: ds.Extent.Min, Max: ds.Extent.Min}.Expand(3000)
	return []struct {
		window geom.Rect
		budget int
	}{
		{at.Expand(500), 1 << 16},
		{at.Expand(2000), 1 << 20},
		{corner, 256 << 10},
		{geom.EmptyRect(), 512 << 10},
		{at.Expand(100), 32 << 20},
		{at.Expand(20000), 1 << 16},
		{ds.Extent, 1 << 20},
	}
}

// capacityOf is the most records a budget holds beside the packed tree the
// client rebuilds over them.
func capacityOf(budget, recordBytes int) int {
	return rtree.Budget{Bytes: budget, RecordBytes: recordBytes}.
		CapacityItems(rtree.DefaultNodeBytes, (rtree.DefaultNodeBytes-rtree.HeaderBytes)/rtree.EntryBytes)
}

// TestRoutedShipmentEqualsMonolithic: a shipment cut through mqrouter over
// three partitioned backends (routed data-mode reads, the router's bounds)
// is the one a monolithic mqserve cuts: the same records and coverage for
// every window and budget.
func TestRoutedShipmentEqualsMonolithic(t *testing.T) {
	ds := dataset.PA()
	_, _, mono, _ := build(t, Server{Dataset: ds}, ds)
	var addrs []string
	for i := range 3 {
		_, addr, _, _ := build(t, Server{Dataset: ds, Partition: fmt.Sprintf("%d/3", i), Replicas: 2}, ds)
		addrs = append(addrs, addr)
	}
	_, _, routed, _ := build(t, Router{Dataset: ds, Backends: addrs}, ds)
	for i, sc := range shipCases(ds) {
		want, err := mono.FetchShipment(sc.window, sc.budget, ds.RecordBytes)
		if err != nil {
			t.Fatalf("case %d: monolithic: %v", i, err)
		}
		got, err := routed.FetchShipment(sc.window, sc.budget, ds.RecordBytes)
		if err != nil {
			t.Fatalf("case %d: routed: %v", i, err)
		}
		if got.Coverage != want.Coverage || !slices.Equal(got.Tree.PackOrder(), want.Tree.PackOrder()) {
			t.Errorf("case %d: routed shipment of %d records over %v, monolithic %d over %v",
				i, got.Len(), got.Coverage, want.Len(), want.Coverage)
		}
		if got.Epoch == 0 {
			t.Errorf("case %d: a routed shipment carries no epoch hint", i)
		}
		t.Logf("case %d: %d records (capacity %d) over %v", i, got.Len(), capacityOf(sc.budget, ds.RecordBytes), got.Coverage)
	}
}

// TestShipmentsAreSound: on a monolithic server, a partitioned backend and
// a router, every shipment fits its budget, and a seeded window or point
// inside its coverage gets from Shipment.Answer what the server answers.
func TestShipmentsAreSound(t *testing.T) {
	ds := dataset.PA()
	_, _, mono, _ := build(t, Server{Dataset: ds}, ds)
	var addrs []string
	var backend *client.Client
	for i := range 3 {
		_, addr, c, _ := build(t, Server{Dataset: ds, Partition: fmt.Sprintf("%d/3", i), Replicas: 2}, ds)
		addrs = append(addrs, addr)
		if i == 0 {
			backend = c
		}
	}
	_, _, routed, _ := build(t, Router{Dataset: ds, Backends: addrs}, ds)
	rng := rand.New(rand.NewSource(46))
	for name, c := range map[string]*client.Client{"monolithic": mono, "backend 0/3": backend, "router": routed} {
		for i, sc := range shipCases(ds) {
			ship, err := c.FetchShipment(sc.window, sc.budget, ds.RecordBytes)
			if err != nil {
				t.Fatalf("%s case %d: %v", name, i, err)
			}
			if limit := capacityOf(sc.budget, ds.RecordBytes); ship.Len() > limit {
				t.Errorf("%s case %d: %d records over a capacity of %d", name, i, ship.Len(), limit)
			}
			// A point's answer reaches DefaultPointEps past the point.
			inner := ship.Coverage.Expand(-scheme.PointEps)
			if inner.IsEmpty() {
				continue
			}
			for j := 0; j < 40; j++ {
				a := geom.Point{X: inner.Min.X + rng.Float64()*inner.Width(), Y: inner.Min.Y + rng.Float64()*inner.Height()}
				b := geom.Point{X: inner.Min.X + rng.Float64()*inner.Width(), Y: inner.Min.Y + rng.Float64()*inner.Height()}
				w := geom.Rect{Min: a, Max: a}.Union(geom.Rect{Min: b, Max: b})
				if j%2 == 0 {
					// Mostly small windows, as the paper's queries are.
					half := min(rng.Float64()*800, a.X-inner.Min.X, inner.Max.X-a.X, a.Y-inner.Min.Y, inner.Max.Y-a.Y)
					w = geom.Rect{Min: a, Max: a}.Expand(half)
				}
				wantRg, err := c.Range(w)
				if err != nil {
					t.Fatal(err)
				}
				gotRg, _ := ship.Answer(scheme.Range(w), 0)
				if !sameRecords(gotRg, wantRg) {
					t.Fatalf("%s case %d: range %v inside %v: shipment %d records, server %d", name, i, w, ship.Coverage, len(gotRg), len(wantRg))
				}
				wantPt, err := c.Point(a, 0)
				if err != nil {
					t.Fatal(err)
				}
				gotPt, _ := ship.Answer(scheme.Point(a), 0)
				if !sameRecords(gotPt, wantPt) {
					t.Fatalf("%s case %d: point %v inside %v: shipment %v, server %v", name, i, a, ship.Coverage, gotPt, wantPt)
				}
			}
		}
	}
}

// sameRecords compares two answers as sets of records.
func sameRecords(a, b []proto.Record) bool {
	byID := func(x, y proto.Record) int { return int(x.ID) - int(y.ID) }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byID)
	slices.SortFunc(b, byID)
	return slices.Equal(a, b)
}
