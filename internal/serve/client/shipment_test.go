package client_test

import (
	"runtime"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

// TestShipmentHeapPerRecord: a client keeps one copy of a shipment, the
// leaves of the tree it rebuilds, plus a 4-byte pack position per record
// that resolves a server's id list. A client's memory is the paper's
// insufficient-memory axis (Fig. 10), so the live heap per shipped record
// is bounded: a whole-PA shipment holds ~48 B a record, and a second copy
// of the records (an id → segment map beside the tree) read ~134 B.
func TestShipmentHeapPerRecord(t *testing.T) {
	ds := dataset.PA()
	msg := &proto.ShipmentMsg{Coverage: ds.Extent, Records: make([]proto.Record, ds.Len())}
	for i, seg := range ds.Segments {
		msg.Records[i] = proto.Record{ID: uint32(i), Seg: seg}
	}
	before := heapNow()
	ship, err := client.NewShipment(msg)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(heapNow()-before) / float64(ship.Len())
	runtime.KeepAlive(ship)
	runtime.KeepAlive(msg)
	t.Logf("%.1f B of live client heap per shipped record (%d records)", per, ship.Len())
	if per > 70 {
		t.Errorf("a shipped record holds %.1f B of client heap, over 70 B: a second copy of the records is back", per)
	}
}

// heapNow returns the live heap after two collections.
func heapNow() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
