package serve

import (
	"errors"
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// TestUpdateRoundTrip drives the full write path over the wire: a fresh id's
// first move (its insert),
// data-mode read of the inserted object (Updatable.SegOf geometry for an id the
// base dataset has never heard of), move, delete, idempotent re-delete —
// against a server whose pool is an updatable shard pool.
func TestUpdateRoundTrip(t *testing.T) {
	ds, _ := testDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, addr := startServer(t, Config{Pool: pool})
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id := uint32(ds.Len() + 7)
	seg := geom.Segment{A: geom.Point{X: 100, Y: 100}, B: geom.Point{X: 160, Y: 130}}
	ack, err := c.Move(id, seg)
	if err != nil || ack.Existed || !ack.Owned {
		t.Fatalf("insert: ack=%+v err=%v", ack, err)
	}

	recs, err := c.Range(seg.MBR())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.ID == id {
			found = true
			if r.Seg != seg {
				t.Fatalf("data-mode record for inserted id: %v, want %v", r.Seg, seg)
			}
		}
	}
	if !found {
		t.Fatalf("inserted id %d missing from range over %v", id, seg.MBR())
	}

	seg2 := geom.Segment{A: geom.Point{X: 40000, Y: 40000}, B: geom.Point{X: 40080, Y: 40040}}
	ack, err = c.Move(id, seg2)
	if err != nil || !ack.Existed || !ack.Owned {
		t.Fatalf("move: ack=%+v err=%v", ack, err)
	}
	ids, err := c.RangeIDs(seg.MBR())
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range ids {
		if got == id {
			t.Fatalf("id %d still at old position after move", id)
		}
	}
	recs, err = c.Range(seg2.MBR())
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, r := range recs {
		if r.ID == id && r.Seg == seg2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("moved id %d not found at new position with fresh geometry", id)
	}

	if ack, err = c.Delete(id); err != nil || !ack.Existed {
		t.Fatalf("delete: ack=%+v err=%v", ack, err)
	}
	if ack, err = c.Delete(id); err != nil || ack.Existed {
		t.Fatalf("re-delete not idempotent: ack=%+v err=%v", ack, err)
	}

	if st := srv.Stats(); st.Updates != 4 {
		t.Fatalf("Stats.Updates=%d, want 4", st.Updates)
	}
}

// TestUpdateUnsupported: a server over a read-only pool answers update
// messages with CodeUnsupported instead of crashing or hanging.
func TestUpdateUnsupported(t *testing.T) {
	ds, tree := testDataset(t)
	pool, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Pool: pool})
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Move(uint32(ds.Len()), geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}})
	var em *proto.ErrorMsg
	if !errors.As(err, &em) || em.Code != proto.CodeUnsupported {
		t.Fatalf("insert on read-only pool: err=%v, want CodeUnsupported", err)
	}
}
