package client

import (
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// TestRequestIDsStayOneByte: request ids cycle below 2⁶, so however long a
// client runs an id costs one byte on the wire, in its request and in its
// reply's head (the id above the stamp bit), is never 0 and never repeats
// the one before it.
func TestRequestIDsStayOneByte(t *testing.T) {
	c, err := New(Config{Addr: "127.0.0.1:1", Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frameLen := func(id uint32) int {
		q := &proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: geom.Point{X: 1, Y: 1}}
		q.Stamp(id, 0)
		frame, err := proto.AppendFrame(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := proto.AppendFrame(nil, &proto.IDListMsg{ID: id, Epoch: 1, IDs: []uint32{3}})
		if err != nil {
			t.Fatal(err)
		}
		return len(frame) + len(reply)
	}
	var prev uint32
	for i := 0; i < 40000; i++ {
		id := c.id()
		if id == 0 || id > 63 {
			t.Fatalf("call %d: id %d, want 1..63", i, id)
		}
		if id == prev {
			t.Fatalf("call %d: id %d repeats the previous one", i, id)
		}
		prev = id
		if i%1000 == 0 {
			if extra := frameLen(id) - frameLen(1); extra > 0 {
				t.Fatalf("id %d after %d calls takes %d more bytes than id 1 in a request and its reply", id, i, extra)
			}
		}
	}
}
