package proto

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"mobispatial/internal/geom"
)

// The zero-allocation regression tests for the wire hot path: once the
// pools are warm, encoding a frame and decoding+releasing a frame must not
// touch the heap. testing.AllocsPerRun runs the body once to warm up before
// measuring, which primes the pools.

func TestFrameEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	// A frame under 128 payload bytes keeps its one-byte length; the larger
	// one is shifted up behind a two-byte length.
	small := &IDListMsg{ID: 1, IDs: []uint32{10, 20, 30, 40, 50, 60, 70, 80}}
	large := &IDListMsg{ID: 1, IDs: make([]uint32, 100)}
	for i := range large.IDs {
		large.IDs[i] = uint32(2 * i)
	}
	for _, reply := range []*IDListMsg{small, large} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := WriteMessage(io.Discard, reply); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("warm WriteMessage of %d ids: %.1f allocs/op, want 0", len(reply.IDs), n)
		}

		var buf []byte
		if n := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = AppendFrame(buf[:0], reply)
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("warm AppendFrame of %d ids: %.1f allocs/op, want 0", len(reply.IDs), n)
		}
	}
}

func TestFrameDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	frames := [][]byte{}
	for _, m := range []Message{
		&QueryMsg{ID: 1, Kind: KindRange, Mode: ModeIDs,
			Window: geom.Rect{Max: geom.Point{X: 10, Y: 10}}},
		&IDListMsg{ID: 2, IDs: []uint32{1, 2, 3, 4, 5, 6, 7, 8}},
		&DataListMsg{ID: 3, Records: []Record{
			{ID: 1, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}},
			{ID: 2, Seg: geom.Segment{A: geom.Point{X: 3, Y: 3}, B: geom.Point{X: 4, Y: 4}}},
		}},
		&BatchQueryMsg{ID: 4, Queries: []QueryMsg{
			{Kind: KindPoint, Mode: ModeIDs, Point: geom.Point{X: 1, Y: 1}},
			{Kind: KindRange, Mode: ModeIDs, Window: geom.Rect{Max: geom.Point{X: 2, Y: 2}}},
		}},
		&BatchReplyMsg{ID: 5, Items: []BatchItem{
			{IDs: []uint32{1, 2, 3}},
			{Recs: []Record{{ID: 9, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}}}},
			{Nbrs: []Neighbor{{ID: 4, Dist: 0.5}, {ID: 7, Dist: 3}}},
		}},
	} {
		f, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// The header is read a byte at a time: directly from a bytes.Reader (the
	// benchmark ladder's decode) and through a bufio.Reader (the client's).
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	for _, c := range []struct {
		name string
		r    io.Reader
	}{{"bytes.Reader", rd}, {"bufio.Reader", br}} {
		if n := testing.AllocsPerRun(200, func() {
			for _, f := range frames {
				rd.Reset(f)
				br.Reset(rd)
				m, _, err := ReadMessage(c.r)
				if err != nil {
					t.Fatal(err)
				}
				ReleaseMessage(m)
			}
		}); n != 0 {
			t.Fatalf("warm ReadMessage+ReleaseMessage through a %s: %.2f allocs/op, want 0", c.name, n)
		}
	}

	// A reply the receiver keeps (the client hands IDs to its caller) decodes
	// into a nil slice: the list is reserved once, whatever its length.
	big := &IDListMsg{ID: 6, IDs: make([]uint32, 1000)}
	for i := range big.IDs {
		big.IDs[i] = uint32(i)
	}
	payload := big.appendPayload(nil)
	var got IDListMsg
	if n := testing.AllocsPerRun(200, func() {
		got.IDs = nil
		if err := got.decodePayload(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("1000-id list into a nil slice: %.2f allocs/op, want exactly 1", n)
	}
	if len(got.IDs) != 1000 || got.IDs[999] != 999 {
		t.Fatalf("decoded %d ids, last %d", len(got.IDs), got.IDs[len(got.IDs)-1])
	}
}
