package mobispatial

import (
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// TestLeavesCarryTheirSegments: the serving kernel refines range, point and
// k-NN queries from the segment each leaf carries, so on every path that
// builds a serving tree every leaf must hold the authoritative geometry of
// its id, bit for bit. The mutable pool's bases, which fold moved and
// inserted ids into fresh trees, are checked in internal/mutable under the
// same name.
func TestLeavesCarryTheirSegments(t *testing.T) {
	ds := nycDS()
	check := func(t *testing.T, what string, tr *rtree.Tree, want func(id uint32) geom.Segment) {
		t.Helper()
		leaves := tr.PackOrder()
		if len(leaves) == 0 {
			t.Fatalf("%s: no leaves", what)
		}
		for _, it := range leaves {
			if got := it.Seg(); got != want(it.ID) || it.MBR != want(it.ID).MBR() {
				t.Fatalf("%s: leaf %d carries %v (MBR %v), want %v", what, it.ID, got, it.MBR, want(it.ID))
			}
		}
	}
	master, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("dataset-build", func(t *testing.T) {
		if master.Len() != ds.Len() {
			t.Fatalf("master tree holds %d items, dataset %d", master.Len(), ds.Len())
		}
		check(t, "master", master, ds.Seg)
	})

	t.Run("partition", func(t *testing.T) {
		// cmd/mqserve -partition i/3: one pool over the ranges a backend
		// holds, its shard trees built from those ranges' items.
		ranges, _ := shard.PartitionHilbert(ds.Items(), 3, 0)
		if len(ranges) != 3 {
			t.Fatalf("%d ranges, want 3", len(ranges))
		}
		for _, rg := range ranges {
			tr, err := rtree.Build(rg.Items, rtree.Config{}, ops.Null{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "range", tr, ds.Seg)
		}
	})

	var ship *rtree.Shipment
	t.Run("extract-subset", func(t *testing.T) {
		c := master.Bounds().Center()
		window := geom.Rect{Min: geom.Point{X: c.X - 2000, Y: c.Y - 2000}, Max: geom.Point{X: c.X + 2000, Y: c.Y + 2000}}
		ship, err = master.ExtractSubset(window, rtree.Budget{Bytes: 1 << 20, RecordBytes: ds.RecordBytes}, ops.Null{})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range ship.Items {
			if it.Seg() != ds.Seg(it.ID) {
				t.Fatalf("shipped item %d carries %v, want %v", it.ID, it.Seg(), ds.Seg(it.ID))
			}
		}
		check(t, "sub-index", ship.SubTree, ds.Seg)
	})

	t.Run("client-shipment", func(t *testing.T) {
		if ship == nil {
			t.Skip("extract-subset failed")
		}
		msg := &proto.ShipmentMsg{Records: make([]proto.Record, len(ship.Items))}
		for i, it := range ship.Items {
			msg.Records[i] = proto.Record{ID: it.ID, Seg: ds.Seg(it.ID)}
		}
		cs, err := client.NewShipment(msg, ds.RecordBytes)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "client shipment", cs.Tree, ds.Seg)
	})
}
