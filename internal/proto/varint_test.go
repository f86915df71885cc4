package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/geom"
)

// varintEdges are the values where a uvarint changes length: one, two and
// three bytes either side of 128 and 16 384, and the top of uint32.
var varintEdges = []uint32{0, 127, 128, 16_383, 16_384, math.MaxUint32}

// TestVarintFieldsRoundTrip: every field that became a uvarint — request
// ids, object ids, k, batch counts and timeouts — survives the wire at each
// length edge and costs exactly its uvarint's bytes. A timeout at or above
// DefaultTimeout comes back as 0, the budget it means.
func TestVarintFieldsRoundTrip(t *testing.T) {
	vlen := func(v uint32) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	pt := geom.Point{X: 1, Y: 2}
	for _, v := range varintEdges {
		k := uint16(min(v, math.MaxUint16))
		timeout := wireTimeout(v)
		hasTimeout := 0
		if timeout != 0 {
			hasTimeout = vlen(timeout)
		}
		count := int(min(max(v, 1), MaxBatchQueries))
		cases := []struct {
			m       Message
			payload int // the encoded payload's length
		}{
			{&QueryMsg{ID: v, Kind: KindNN, Point: pt, K: k, TimeoutMicros: v},
				vlen(v) + 1 + 16 + vlen(uint32(k)) + hasTimeout},
			{&DeleteMsg{ID: v, ObjID: v, TimeoutMicros: v}, 2*vlen(v) + max(hasTimeout, 1)},
			{&MoveMsg{ID: v, ObjID: v, Seg: geom.Segment{A: pt, B: pt}, TimeoutMicros: v},
				2*vlen(v) + 32 + max(hasTimeout, 1)},
			{&ShipmentReqMsg{ID: v, Window: geom.Rect{Max: pt}, BudgetBytes: 1, RecordBytes: 16, TimeoutMicros: v},
				vlen(v) + 32 + 8 + max(hasTimeout, 1)},
			{&BatchQueryMsg{ID: v, TimeoutMicros: v, Queries: make([]QueryMsg, count)},
				vlen(v) + max(hasTimeout, 1) + vlen(uint32(count)) + count*(1+1+16)},
			{&BatchReplyMsg{ID: v, Items: make([]BatchItem, count)},
				vlen(v) + 8 + vlen(uint32(count)) + count*2},
			{&UpdateAckMsg{ID: v, Epoch: 1}, vlen(v) + 8 + 1},
			{&IDListMsg{ID: v, IDs: []uint32{v}}, vlen(v) + 8 + 1 + len(appendIDs(nil, []uint32{v})) - 1},
			{&PingMsg{ID: v}, vlen(v) + 4},
			{&StatsReqMsg{ID: v}, vlen(v)},
			{&SummaryReqMsg{ID: v}, vlen(v)},
		}
		for _, c := range cases {
			frame, err := EncodeMessage(c.m)
			if err != nil {
				t.Fatalf("%v at %d: %v", c.m.Type(), v, err)
			}
			if got := len(frame) - headerLen(frame); got != c.payload {
				t.Errorf("%v at %d: payload %d bytes, want %d", c.m.Type(), v, got, c.payload)
			}
			got, n, err := ReadMessage(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("%v at %d: %v", c.m.Type(), v, err)
			}
			if n != len(frame) {
				t.Errorf("%v at %d: read %d bytes of a %d-byte frame", c.m.Type(), v, n, len(frame))
			}
			// A decoded request reads 0 for a budget at or above the default.
			if r, ok := c.m.(Request); ok {
				if us, timed := r.Timeout(); timed {
					r.Stamp(r.RequestID(), wireTimeout(us))
				}
			}
			if !wireEqual(c.m, got) {
				t.Errorf("%v at %d: round trip\n sent %+v\n got  %+v", c.m.Type(), v, c.m, got)
			}
		}
	}
}

// TestFrameLengthEdges: a payload of 127 bytes takes a one-byte length, one
// of 128 a two-byte length, and both read back whole.
func TestFrameLengthEdges(t *testing.T) {
	for _, c := range []struct {
		payload int
		header  []byte
	}{
		{127, []byte{127, byte(MsgPing)}},
		{128, []byte{0x80, 0x01, byte(MsgPing)}},
		{16_383, []byte{0xFF, 0x7F, byte(MsgPing)}},
		{16_384, []byte{0x80, 0x80, 0x01, byte(MsgPing)}},
	} {
		ping := &PingMsg{ID: 1, Payload: make([]byte, c.payload-5)} // the id and the length take 5
		for i := range ping.Payload {
			ping.Payload[i] = byte(i)
		}
		// Encode behind a prefix, so the shift keeps bytes that precede the
		// frame in dst.
		frame, err := AppendFrame([]byte("prefix"), ping)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(frame, []byte("prefix")) {
			t.Fatalf("payload %d: AppendFrame overwrote the bytes before the frame", c.payload)
		}
		frame = frame[len("prefix"):]
		if !bytes.HasPrefix(frame, c.header) || len(frame) != len(c.header)+c.payload {
			t.Fatalf("payload %d: header % x, %d bytes; want % x and %d", c.payload,
				frame[:len(c.header)], len(frame), c.header, len(c.header)+c.payload)
		}
		// Through an io.ByteReader and through a plain reader.
		for _, r := range []io.Reader{bytes.NewReader(frame), io.MultiReader(bytes.NewReader(frame))} {
			got, n, err := ReadMessage(r)
			if err != nil {
				t.Fatalf("payload %d: %v", c.payload, err)
			}
			if n != len(frame) || !wireEqual(ping, got) {
				t.Fatalf("payload %d: read %d of %d bytes, equal %v", c.payload, n, len(frame), wireEqual(ping, got))
			}
		}
	}
}

// TestFrameHeaderRefusals: a length uvarint longer than four bytes, padded
// past its shortest form, above MaxFramePayload or cut short is refused
// having consumed only the header's bytes and reserved nothing for the
// payload it announced, through an io.ByteReader and a plain reader alike.
func TestFrameHeaderRefusals(t *testing.T) {
	body := bytes.Repeat([]byte{byte(MsgPing)}, 64) // what a reader must not consume
	over := binary.AppendUvarint(nil, MaxFramePayload+1)
	for _, c := range []struct {
		name     string
		header   []byte
		consumed int
		want     string
	}{
		{"five-byte length", []byte{0x80, 0x80, 0x80, 0x80, 0x01}, 4, "longer than 4 bytes"},
		{"padded length", []byte{0x85, 0x00}, 2, "padded"},
		{"length above the cap", over, len(over), "exceeds"},
		{"the largest four-byte length", []byte{0xFF, 0xFF, 0xFF, 0x7F}, 4, "exceeds"},
	} {
		input := append(append([]byte(nil), c.header...), body...)
		for _, plain := range []bool{false, true} {
			rd := bytes.NewReader(input)
			var r io.Reader = rd
			if plain {
				r = io.MultiReader(rd)
			}
			_, _, err := ReadMessage(r)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (plain reader %v): err %v, want one naming %q", c.name, plain, err, c.want)
			}
			if got := len(input) - rd.Len(); got != c.consumed {
				t.Errorf("%s (plain reader %v): consumed %d bytes, want the header's %d", c.name, plain, got, c.consumed)
			}
		}
		var before, after runtime.MemStats
		const reps = 100
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			_, _, _ = ReadMessage(bytes.NewReader(input))
		}
		runtime.ReadMemStats(&after)
		// The error text and, when the pool drops one (it does under -race),
		// a 4 KB frame buffer; a payload chunk is 64 KB.
		if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 16<<10 {
			t.Errorf("%s: %d bytes allocated per refusal; nothing should be reserved", c.name, per)
		}
	}

	// A header cut short: inside the length, and between length and type.
	for _, cut := range [][]byte{{0x80}, {0xFF, 0xFF}, {0x80, 0x80, 0x80}, {0x05}} {
		for _, r := range []io.Reader{bytes.NewReader(cut), io.MultiReader(bytes.NewReader(cut))} {
			if _, _, err := ReadMessage(r); err != io.ErrUnexpectedEOF {
				t.Errorf("header % x: err %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
	if _, _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty input: err %v, want io.EOF", err)
	}
}

// TestDefaultTimeoutTravelsAsNone: a request stamped with DefaultTimeout or
// more encodes byte for byte like one stamped with none, and one stamped a
// microsecond under it carries the budget.
func TestDefaultTimeoutTravelsAsNone(t *testing.T) {
	def := uint32(DefaultTimeout / time.Microsecond)
	pt := geom.Point{X: 1, Y: 2}
	requests := []func() Request{
		func() Request { return &QueryMsg{Kind: KindPoint, Point: pt} },
		func() Request { return &QueryMsg{Kind: KindRange, Window: geom.Rect{Max: pt}} },
		func() Request { return &QueryMsg{Kind: KindNN, Point: pt, K: 8} },
		func() Request { return &BatchQueryMsg{Queries: []QueryMsg{{Kind: KindPoint, Point: pt}}} },
		func() Request { return &MoveMsg{ObjID: 9, Seg: geom.Segment{A: pt, B: pt}} },
		func() Request { return &DeleteMsg{ObjID: 9} },
		func() Request {
			return &ShipmentReqMsg{Window: geom.Rect{Max: pt}, BudgetBytes: 1, RecordBytes: 16}
		},
	}
	encode := func(mk func() Request, micros uint32) []byte {
		req := mk()
		req.Stamp(7, micros)
		frame, err := EncodeMessage(req)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for _, mk := range requests {
		none := encode(mk, 0)
		for _, micros := range []uint32{def, def + 1, math.MaxUint32} {
			if got := encode(mk, micros); !bytes.Equal(got, none) {
				t.Errorf("%v stamped %d µs: % x, want the untimed % x", mk().Type(), micros, got, none)
			}
		}
		tight := encode(mk, def-1)
		if len(tight) <= len(none) {
			t.Errorf("%v stamped %d µs: %d bytes, no more than the untimed %d", mk().Type(), def-1, len(tight), len(none))
		}
		got, _, err := ReadMessage(bytes.NewReader(tight))
		if err != nil {
			t.Fatal(err)
		}
		if us, _ := got.(Request).Timeout(); us != def-1 {
			t.Errorf("%v: decoded timeout %d µs, want %d", got.Type(), us, def-1)
		}
	}
}
