package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/geom"
)

// allMessages returns one populated instance of every wire message type used
// by internal/serve.
func allMessages() []Message {
	return []Message{
		&QueryMsg{ID: 7, Kind: KindRange, Mode: ModeIDs,
			Window:        geom.Rect{Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 30, Y: 40}},
			TimeoutMicros: 250_000},
		&QueryMsg{ID: 8, Kind: KindPoint, Mode: ModeData, Point: geom.Point{X: -5.5, Y: 12.25}, Eps: 1},
		&QueryMsg{ID: 9, Kind: KindNN, Mode: ModeIDs, K: 5, Point: geom.Point{X: 0, Y: 0}},
		&QueryMsg{ID: 10, Kind: KindPoint, Mode: ModeFilter, Point: geom.Point{X: 3, Y: 4}, TimeoutMicros: 1},
		&IDListMsg{ID: 7, IDs: []uint32{1, 2, 3, 0xFFFFFFFF}},
		&IDListMsg{ID: 10, IDs: nil},
		// Any order survives: descending, repeated, both ends of uint32, and
		// a run longer than one run carries.
		&IDListMsg{ID: 11, Epoch: 99, IDs: append([]uint32{9, 8, 8, 0, 0xFFFFFFFF, 0, 0xFFFFFFFE, 0xFFFFFFFF}, seq(1000, 150)...)},
		&DataListMsg{ID: 11, Records: []Record{
			{ID: 4, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}},
			{ID: 5, Seg: geom.Segment{A: geom.Point{X: -1, Y: 0.5}, B: geom.Point{X: 0, Y: 0}}},
		}},
		// A street: each record starts where the last ended, ids ascending;
		// then a jump back, and a -0 that must not pass for the +0 before it.
		&DataListMsg{ID: 12, Epoch: 1, Records: []Record{
			{ID: 70, Seg: geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 10, Y: 0}}},
			{ID: 71, Seg: geom.Segment{A: geom.Point{X: 10, Y: 0}, B: geom.Point{X: 10, Y: 10}}},
			{ID: 72, Seg: geom.Segment{A: geom.Point{X: 10, Y: 10}, B: geom.Point{X: 20, Y: 0}}},
			{ID: 3, Seg: geom.Segment{A: geom.Point{X: 20, Y: math.Copysign(0, -1)}, B: geom.Point{X: 20, Y: 0}}},
			{ID: 0xFFFFFFFF, Seg: geom.Segment{A: geom.Point{X: 20, Y: 0}, B: geom.Point{X: 20, Y: 0}}},
		}},
		&DataListMsg{ID: 12},
		&ShipmentReqMsg{ID: 13,
			Window:      geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 100, Y: 100}},
			BudgetBytes: 1 << 20, RecordBytes: 76, TimeoutMicros: 1_000_000},
		&ShipmentMsg{ID: 13,
			Coverage: geom.Rect{Min: geom.Point{X: -10, Y: -10}, Max: geom.Point{X: 110, Y: 110}},
			Records: []Record{
				{ID: 9, Seg: geom.Segment{A: geom.Point{X: 3, Y: 4}, B: geom.Point{X: 5, Y: 6}}},
			}},
		&ShipmentMsg{ID: 14, Coverage: geom.EmptyRect()}, // no-guarantee shipment
		&ErrorMsg{ID: 15, Code: CodeOverload, Text: "too many in-flight requests"},
		&PingMsg{ID: 16, Payload: []byte("abcdefgh")},
		&PingMsg{ID: 17},
		&StatsReqMsg{ID: 18},
		&StatsMsg{ID: 18, UptimeMicros: 12_345_678,
			Counters: []StatCounter{
				{Name: "serve_requests_total", Value: 42},
				{Name: `serve_queries_total{kind="range",mode="ids"}`, Value: 7},
			},
			Gauges: []StatGauge{{Name: "client_link_bandwidth_bps", Value: 2e6}},
			Hists: []StatHist{{
				Name: `serve_exec_seconds{kind="point"}`, Count: 42,
				Mean: 0.002, Min: 0.0001, Max: 0.5, P50: 0.0015, P95: 0.02, P99: 0.3,
			}},
		},
		&StatsMsg{ID: 19}, // an empty snapshot is legal
		&BatchQueryMsg{ID: 20, TimeoutMicros: 500_000, Queries: []QueryMsg{
			{ID: 1, Kind: KindRange, Mode: ModeIDs,
				Window: geom.Rect{Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 3, Y: 4}}},
			{ID: 2, Kind: KindPoint, Mode: ModeData, Point: geom.Point{X: 9, Y: 9}, Eps: 0.5},
			{ID: 3, Kind: KindNN, Mode: ModeIDs, K: 3, Point: geom.Point{X: -1, Y: -2}},
			{ID: 4, Kind: KindNN, Mode: ModeNeighbors, K: 8, Point: geom.Point{X: 5, Y: 6}},
		}},
		&BatchReplyMsg{ID: 20, Items: []BatchItem{
			{IDs: []uint32{5, 6, 7}},
			{Recs: []Record{{ID: 8, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}}}},
			{Err: CodeBadRequest, Text: "k too large"},
			{}, // an empty answer is an empty id list
			{Nbrs: []Neighbor{{ID: 3, Dist: 0}, {ID: 11, Dist: 4.75}}},
		}},
		&BatchQueryMsg{ID: 21, TimeoutMicros: 100_000, Queries: []QueryMsg{ // a bounded k-NN leg
			{Kind: KindNN, Mode: ModeNeighbors, K: 8, Point: geom.Point{X: 3.5, Y: -7}, Eps: 123.25},
		}},
		&SummaryReqMsg{ID: 24},
		&SummaryMsg{ID: 24, NumRanges: 3,
			Ranges: []RangeInfo{
				{Index: 0, Items: 400, Lo: 0, Hi: 99, Version: 7,
					MBR: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50, Y: 40}}},
				{Index: 2, Items: 600, Lo: 200, Hi: 1 << 40, Version: 1 << 50,
					MBR: geom.Rect{Min: geom.Point{X: 30, Y: 20}, Max: geom.Point{X: 90, Y: 90}}},
			}},
		&SummaryMsg{ID: 25}, // an empty backend is legal
		&MoveMsg{ID: 26, ObjID: 150_000,
			Seg:           geom.Segment{A: geom.Point{X: 10, Y: 20}, B: geom.Point{X: 11, Y: 21}},
			TimeoutMicros: 100_000},
		&MoveMsg{ID: 27, ObjID: 0, Seg: geom.Segment{}}, // zero-area point object
		&DeleteMsg{ID: 28, ObjID: 150_000, TimeoutMicros: 50_000},
		&MoveMsg{ID: 29, ObjID: 150_001,
			Seg: geom.Segment{A: geom.Point{X: -3.5, Y: 7}, B: geom.Point{X: -3.5, Y: 7}}},
		&UpdateAckMsg{ID: 29, Epoch: 42, Existed: true, Owned: true},
		&UpdateAckMsg{ID: 30, Epoch: 0}, // miss on a non-owning server
	}
}

// TestWireRoundTrip encodes and decodes every message type and requires the
// decoded value to equal the original.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		var buf bytes.Buffer
		n, err := WriteMessage(&buf, m)
		if err != nil {
			t.Fatalf("%v: write: %v", m.Type(), err)
		}
		if n != buf.Len() {
			t.Fatalf("%v: WriteMessage reported %d bytes, wrote %d", m.Type(), n, buf.Len())
		}
		got, rn, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", m.Type(), err)
		}
		if rn != n {
			t.Fatalf("%v: ReadMessage reported %d bytes, frame was %d", m.Type(), rn, n)
		}
		if got.Type() != m.Type() || got.RequestID() != m.RequestID() {
			t.Fatalf("%v: type/id mismatch: got %v id %d", m.Type(), got.Type(), got.RequestID())
		}
		if !wireEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n sent %+v\n got  %+v", m.Type(), m, got)
		}
	}
}

// wireEqual compares messages, treating nil and empty slices as equal (the
// wire cannot distinguish them) and empty rectangles as equal regardless of
// their corner representation.
func wireEqual(a, b Message) bool {
	switch x := a.(type) {
	case *IDListMsg:
		y := b.(*IDListMsg)
		return x.ID == y.ID && slicesEqual(x.IDs, y.IDs)
	case *DataListMsg:
		y := b.(*DataListMsg)
		return x.ID == y.ID && recordsEqual(x.Records, y.Records)
	case *ShipmentMsg:
		y := b.(*ShipmentMsg)
		if x.ID != y.ID || !recordsEqual(x.Records, y.Records) {
			return false
		}
		if x.Coverage.IsEmpty() || y.Coverage.IsEmpty() {
			return x.Coverage.IsEmpty() == y.Coverage.IsEmpty()
		}
		return x.Coverage == y.Coverage
	case *PingMsg:
		y := b.(*PingMsg)
		return x.ID == y.ID && bytes.Equal(x.Payload, y.Payload)
	case *BatchReplyMsg:
		y := b.(*BatchReplyMsg)
		if x.ID != y.ID || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			xi, yi := &x.Items[i], &y.Items[i]
			if xi.Err != yi.Err || xi.Text != yi.Text || !slicesEqual(xi.IDs, yi.IDs) ||
				!recordsEqual(xi.Recs, yi.Recs) || !slices.Equal(xi.Nbrs, yi.Nbrs) {
				return false
			}
		}
		return true
	case *BatchQueryMsg:
		y := b.(*BatchQueryMsg)
		if x.ID != y.ID || x.TimeoutMicros != y.TimeoutMicros || len(x.Queries) != len(y.Queries) {
			return false
		}
		for i := range x.Queries {
			if x.Queries[i] != y.Queries[i] {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

func slicesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordsEqual compares coordinates by bit pattern: a coding that turned -0
// into +0 would not be lossless.
func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !samePoint(a[i].Seg.A, b[i].Seg.A) || !samePoint(a[i].Seg.B, b[i].Seg.B) {
			return false
		}
	}
	return true
}

// TestWireSequence streams several frames through one buffer and reads them
// back in order — the pipelining case.
func TestWireSequence(t *testing.T) {
	msgs := allMessages()
	var buf bytes.Buffer
	for _, m := range msgs {
		if _, err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	for i, want := range msgs {
		got, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() || got.RequestID() != want.RequestID() {
			t.Fatalf("frame %d: got %v/%d want %v/%d",
				i, got.Type(), got.RequestID(), want.Type(), want.RequestID())
		}
	}
	if _, _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestWireValidateRejects exercises Validate on malformed messages.
func TestWireValidateRejects(t *testing.T) {
	bad := []Message{
		&QueryMsg{ID: 1, Kind: 9},
		&QueryMsg{ID: 1, Kind: KindPoint, Mode: 9},
		&QueryMsg{ID: 1, Kind: KindNN, Mode: ModeFilter, Point: geom.Point{}},
		&QueryMsg{ID: 1, Kind: KindPoint, Mode: ModeNeighbors},
		&QueryMsg{ID: 1, Kind: KindRange, Mode: ModeNeighbors, Window: geom.Rect{Max: geom.Point{X: 1, Y: 1}}},
		&QueryMsg{ID: 1, Kind: KindNN, Mode: ModeNeighbors + 1},
		&QueryMsg{ID: 1, Kind: KindRange, Window: geom.EmptyRect()},
		&QueryMsg{ID: 1, Kind: KindPoint, Point: geom.Point{X: math.NaN()}},
		&QueryMsg{ID: 1, Kind: KindPoint, Eps: math.Inf(1)},
		&ShipmentReqMsg{ID: 1, BudgetBytes: 0, RecordBytes: 76},
		&ShipmentReqMsg{ID: 1, BudgetBytes: 4096, RecordBytes: 4},
		&ErrorMsg{ID: 1, Code: 0},
		&ErrorMsg{ID: 1, Code: CodeInternal, Text: string(make([]byte, MaxErrorText+1))},
		&PingMsg{ID: 1, Payload: make([]byte, MaxPingPayload+1)},
		&DataListMsg{ID: 1, Records: []Record{{Seg: geom.Segment{A: geom.Point{X: math.NaN()}}}}},
		&StatsMsg{ID: 1, Counters: []StatCounter{{Name: "", Value: 1}}},
		&StatsMsg{ID: 1, Gauges: []StatGauge{{Name: "g", Value: math.NaN()}}},
		&StatsMsg{ID: 1, Hists: []StatHist{{Name: "h", Mean: math.NaN()}}},
		&StatsMsg{ID: 1, Counters: []StatCounter{{Name: string(make([]byte, MaxStatName+1))}}},
		&StatsMsg{ID: 1, Counters: make([]StatCounter, MaxStatsEntries+1)},
		&BatchQueryMsg{ID: 1},
		&BatchQueryMsg{ID: 1, Queries: make([]QueryMsg, MaxBatchQueries+1)},
		&BatchQueryMsg{ID: 1, Queries: []QueryMsg{{Kind: 9}}},
		&BatchReplyMsg{ID: 1},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{1}, Recs: []Record{{ID: 2}}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Err: CodeInternal, IDs: []uint32{1}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{1}, Nbrs: []Neighbor{{ID: 2}}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Err: CodeInternal, Nbrs: []Neighbor{{ID: 2}}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Nbrs: []Neighbor{{ID: 2, Dist: math.NaN()}}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Text: "orphan text"}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{
			{Recs: []Record{{Seg: geom.Segment{A: geom.Point{X: math.NaN()}}}}}}},
		&BatchQueryMsg{ID: 1, Queries: []QueryMsg{{Kind: KindNN, Mode: ModeNeighbors, Eps: math.NaN()}}},
		&BatchQueryMsg{ID: 1, Queries: []QueryMsg{{Kind: KindNN, Mode: ModeNeighbors, Eps: -1}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Nbrs: []Neighbor{{ID: 2, Dist: -0.5}}}}},
		&SummaryMsg{ID: 1, NumRanges: 2, Ranges: []RangeInfo{{Index: 2}}},
		&SummaryMsg{ID: 1, NumRanges: 1, Ranges: []RangeInfo{{Index: 0, Lo: 9, Hi: 3}}},
		&SummaryMsg{ID: 1, NumRanges: 1, Ranges: []RangeInfo{
			{Index: 0, MBR: geom.Rect{Min: geom.Point{X: math.NaN()}}}}},
		&SummaryMsg{ID: 1, Ranges: []RangeInfo{{Index: 0}}}, // zero-range cluster
		&SummaryMsg{ID: 1, NumRanges: MaxSummaryRanges + 1, Ranges: make([]RangeInfo, MaxSummaryRanges+1)},
		&MoveMsg{ID: 1, Seg: geom.Segment{A: geom.Point{Y: math.NaN()}}},
		&MoveMsg{ID: 1, Seg: geom.Segment{B: geom.Point{X: math.Inf(-1)}}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%T %+v: Validate accepted malformed message", m, m)
		}
		if _, err := EncodeMessage(m); err == nil {
			t.Errorf("%T: EncodeMessage accepted malformed message", m)
		}
	}
}

// TestWireRejectsCorruptFrames feeds truncated and corrupt frames to
// ReadMessage.
func TestWireRejectsCorruptFrames(t *testing.T) {
	frame, err := EncodeMessage(&IDListMsg{ID: 3, IDs: []uint32{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every boundary must error, never panic.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadMessage(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Unknown message type.
	badType := append([]byte(nil), frame...)
	badType[1] = 0xEE
	if _, _, err := ReadMessage(bytes.NewReader(badType)); err == nil {
		t.Fatal("unknown type accepted")
	}

	// Inner count disagreeing with the payload length.
	badCount := append([]byte(nil), frame...)
	badCount[2+1+8] = 99 // id-list count varint (after the header, the id and the epoch)
	if _, _, err := ReadMessage(bytes.NewReader(badCount)); err == nil {
		t.Fatal("mismatched count accepted")
	}

	// Types 12 and 13, the retired k-NN-only leg and its reply, with a
	// payload each might have carried.
	for _, typ := range []byte{12, 13} {
		retired := append([]byte(nil), frame...)
		retired[1] = typ
		if _, _, err := ReadMessage(bytes.NewReader(retired)); err == nil {
			t.Fatalf("retired message type %d accepted", typ)
		}
	}

	// Type 16, the retired insert, carrying the move payload it shared.
	insert, err := EncodeMessage(&MoveMsg{ID: 4, ObjID: 9, Seg: geom.Segment{B: geom.Point{X: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	insert[1] = 16
	if _, _, err := ReadMessage(bytes.NewReader(insert)); err == nil {
		t.Fatal("retired message type 16 accepted")
	}

	// Oversized frame header: the largest four-byte length.
	huge := append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, frame[1:]...)
	if _, _, err := ReadMessage(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestWireFrameLayout pins the frame header layout and the three read
// encodings — a kind-shaped query, a run-coded id list and an
// endpoint-chained record list — so independent implementations can
// interoperate.
func TestWireFrameLayout(t *testing.T) {
	one, two, ten := f64(1), f64(2), f64(10)
	cases := []struct {
		name string
		m    Message
		want [][]byte
	}{
		{"ping", &PingMsg{ID: 0x01020304, Payload: []byte{0xAA}}, [][]byte{
			{9, byte(MsgPing)},       // payload length: 4 id + 4 len + 1 byte
			{0x84, 0x86, 0x88, 0x08}, // request id 0x01020304 as a uvarint
			{0, 0, 0, 1},             // payload length
			{0xAA},
		}},
		{"point query", &QueryMsg{ID: 300, Kind: KindPoint, Mode: ModeIDs,
			Point: geom.Point{X: 1, Y: 2}, Window: geom.Rect{Max: geom.Point{X: 9, Y: 9}}, K: 3, TimeoutMicros: 200}, [][]byte{
			{21, byte(MsgQuery)},
			{0xAC, 0x02}, // id 300
			{KindPoint | byte(ModeIDs)<<2 | flagHasTimeout}, // no eps: 0 means the default
			one, two, // the point; the window and K a point query ignores stay home
			{0xC8, 0x01}, // timeout 200 µs
		}},
		{"point query at the default timeout", &QueryMsg{ID: 5, Kind: KindPoint, Mode: ModeIDs,
			Point: geom.Point{X: 1, Y: 2}, TimeoutMicros: uint32(DefaultTimeout / time.Microsecond)}, [][]byte{
			{18, byte(MsgQuery)},
			{5},
			{KindPoint | byte(ModeIDs)<<2}, // no timeout: the default travels as none
			one, two,
		}},
		{"neighbors leg", &QueryMsg{ID: 7, Kind: KindNN, Mode: ModeNeighbors, Point: geom.Point{X: 1, Y: 2}, K: 8, Eps: 10}, [][]byte{
			{27, byte(MsgQuery)},
			{7},
			{KindNN | byte(ModeNeighbors)<<2 | flagHasEps},
			one, two, {8}, // point, K
			ten, // the router's bound
		}},
		{"move", &MoveMsg{ID: 1, ObjID: 200, Seg: geom.Segment{A: geom.Point{X: 1, Y: 2}, B: geom.Point{X: 2, Y: 1}}}, [][]byte{
			{36, byte(MsgMove)},
			{1}, {0xC8, 0x01}, // request id, object id 200
			one, two, two, one,
			{0}, // no timeout
		}},
		{"update ack", &UpdateAckMsg{ID: 1, ObjID: 200, Epoch: 3, Existed: true}, [][]byte{
			{10, byte(MsgUpdateAck)},
			{1},                      // request id; the object id is not echoed
			{0, 0, 0, 0, 0, 0, 0, 3}, // epoch
			{ackFlagExisted},
		}},
		{"id list", &IDListMsg{ID: 9, IDs: []uint32{5, 6, 7, 3, 100}}, [][]byte{
			{17, byte(MsgIDList)},
			{9},
			{0, 0, 0, 0, 0, 0, 0, 0}, // epoch
			{5},                      // count
			{10, 2},                  // gap +5 zigzagged, run of 3: 5 6 7
			{9, 0},                   // gap 3-8 = -5 zigzagged, run of 1
			{0xC0, 0x01, 0},          // gap 100-4 = 96, zigzag 192 as a two-byte varint, run of 1
		}},
		{"data list", &DataListMsg{ID: 1, Records: []Record{
			{ID: 10, Seg: geom.Segment{A: geom.Point{}, B: geom.Point{X: 1}}},
			{ID: 11, Seg: geom.Segment{A: geom.Point{X: 1}, B: geom.Point{X: 1, Y: 2}}},
		}}, [][]byte{
			{60, byte(MsgDataList)},
			{1},
			{0, 0, 0, 0, 0, 0, 0, 0}, // epoch
			{2},                      // count
			{40},                     // id delta +10 zigzagged to 20, shifted; A follows
			f64(0), f64(0), one, f64(0),
			{5},      // id delta +1 zigzagged to 2, shifted, low bit: A is the last B
			one, two, // B only
		}},
	}
	for _, c := range cases {
		frame, err := EncodeMessage(c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := bytes.Join(c.want, nil); !bytes.Equal(frame, want) {
			t.Errorf("%s: frame layout drifted:\n got  %v\n want %v", c.name, frame, want)
		}
	}
}

// f64 is a float's wire bytes.
func f64(v float64) []byte { return appendF64(nil, v) }

// frameOf builds a frame around a hand-written payload.
func frameOf(t MsgType, parts ...[]byte) []byte {
	payload := bytes.Join(parts, nil)
	return append(binary.AppendUvarint(nil, uint64(len(payload))), append([]byte{byte(t)}, payload...)...)
}

// headerLen is the length of a frame's header: its length uvarint and type
// byte.
func headerLen(frame []byte) int {
	_, n := binary.Uvarint(frame)
	return n + 1
}

// uv is a uvarint's wire bytes.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// rejectedFrames are hand-built frames each read encoding must refuse: the
// decoder bounds that keep a hostile frame's cost proportional to its bytes,
// and the shapes that would not re-encode as they arrived. FuzzReadMessage
// takes them as seeds.
func rejectedFrames() map[string][]byte {
	id, epoch := []byte{1}, make([]byte, 8)
	pt, win := append(f64(1), f64(2)...), append(append(f64(0), f64(0)...), append(f64(5), f64(5)...)...)
	varint := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	return map[string][]byte{
		"id count beyond the payload":   frameOf(MsgIDList, id, epoch, []byte{200, 1}, varint(0), []byte{63}),
		"id gap leaving uint32":         frameOf(MsgIDList, id, epoch, []byte{1}, varint(1<<32), []byte{0}),
		"id gap below zero":             frameOf(MsgIDList, id, epoch, []byte{1}, varint(-1), []byte{0}),
		"id run leaving uint32":         frameOf(MsgIDList, id, epoch, []byte{2}, varint(math.MaxUint32), []byte{1}),
		"id run above the cap":          frameOf(MsgIDList, id, epoch, []byte{65}, varint(0), []byte{64}, varint(0), []byte{0}),
		"id runs overrunning the count": frameOf(MsgIDList, id, epoch, []byte{2}, varint(0), []byte{4}),
		"record count beyond the payload": frameOf(MsgDataList, id, epoch, []byte{2},
			[]byte{40}, pt, pt),
		"first record flagged shared": frameOf(MsgDataList, id, epoch, []byte{1}, []byte{21}, pt),
		"record id leaving uint32":    frameOf(MsgDataList, id, epoch, []byte{1}, []byte{2}, pt, pt),
		"unknown query flag bits":     frameOf(MsgQuery, id, []byte{0x40 | KindPoint}, pt),
		"query kind 3":                frameOf(MsgQuery, id, []byte{3}, pt),
		"eps on a range query":        frameOf(MsgQuery, id, []byte{KindRange | byte(ModeIDs)<<2 | flagHasEps}, win, f64(1)),
		"eps on an ids-mode k-NN":     frameOf(MsgQuery, id, []byte{KindNN | byte(ModeIDs)<<2 | flagHasEps}, pt, []byte{1}, f64(1)),
		"eps on a batched range query": frameOf(MsgBatchQuery, id, []byte{0}, []byte{1},
			id, []byte{KindRange | flagHasEps}, win, f64(1)),
		"batch count beyond the payload": frameOf(MsgBatchQuery, id, []byte{0}, []byte{9},
			id, []byte{KindPoint}, pt),
		"request id leaving uint32": frameOf(MsgQuery, uv(1<<32), []byte{KindPoint}, pt),
		"object id leaving uint32":  frameOf(MsgDelete, id, uv(1<<32), []byte{0}),
		"k leaving uint16":          frameOf(MsgQuery, id, []byte{KindNN}, pt, uv(1<<16)),
		"a query timeout at the default": frameOf(MsgQuery, id, []byte{KindPoint | flagHasTimeout}, pt,
			uv(uint64(defaultTimeoutMicros))),
		"a flagged zero timeout":         frameOf(MsgQuery, id, []byte{KindPoint | flagHasTimeout}, pt, []byte{0}),
		"a batch timeout at the default": frameOf(MsgBatchQuery, id, uv(uint64(defaultTimeoutMicros)), []byte{1}, id, []byte{KindPoint}, pt),
		"a move timeout at the default":  frameOf(MsgMove, id, id, make([]byte, 32), uv(uint64(defaultTimeoutMicros))),
		"an ack echoing the object id":   frameOf(MsgUpdateAck, id, id, epoch, []byte{0}),
		// Uptime, no counters, gauges or histograms, then a tagged section.
		"stats with a trailing section": frameOf(MsgStats, id, make([]byte, 8), []byte{0, 0, 0, 0, 0, 0},
			[]byte{0xAA, 0, 0, 0, 5}, []byte("hello")),
		"summary with the old header gap": frameOf(MsgSummary, id, []byte{0, 0, 0, 1}, make([]byte, 8+32),
			[]byte{0, 0, 0, 1}, summaryRow()),
	}
}

// summaryRow is one encoded RangeInfo.
func summaryRow() []byte {
	b := appendU32(appendU32(nil, 0), 3)          // range 0, 3 items
	b = binaryAppendU64(binaryAppendU64(b, 0), 9) // keys [0, 9]
	return append(b, make([]byte, 8+32)...)       // version 0, an empty MBR
}

// TestWireRejectsHandBuiltFrames: every rejected frame errors, and each is
// one edit away from a frame the decoder accepts — so it is the named bound
// that refuses it, not some other malformation.
func TestWireRejectsHandBuiltFrames(t *testing.T) {
	for name, frame := range rejectedFrames() {
		if m, _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
	id, epoch := []byte{1}, make([]byte, 8)
	pt := append(f64(1), f64(2)...)
	accepted := map[string][]byte{
		"ids at the top of uint32": frameOf(MsgIDList, id, epoch, []byte{2}, binary.AppendVarint(nil, math.MaxUint32-1), []byte{1}),
		"a full-cap run":           frameOf(MsgIDList, id, epoch, []byte{64}, []byte{0, 63}),
		"a second record flagged":  frameOf(MsgDataList, id, epoch, []byte{2}, []byte{40}, pt, pt, []byte{5}, pt),
		"eps on a point query":     frameOf(MsgQuery, id, []byte{KindPoint | flagHasEps}, pt, f64(1)),
		"eps on a neighbors k-NN":  frameOf(MsgQuery, id, []byte{KindNN | byte(ModeNeighbors)<<2 | flagHasEps}, pt, []byte{1}, f64(1)),
		"a batched query with a timeout": frameOf(MsgBatchQuery, id, []byte{0}, []byte{1},
			id, []byte{KindPoint | flagHasTimeout}, pt, []byte{9}),
		"request id at the top of uint32": frameOf(MsgQuery, uv(math.MaxUint32), []byte{KindPoint}, pt),
		"object id at the top of uint32":  frameOf(MsgDelete, id, uv(math.MaxUint32), []byte{0}),
		"k at the top of uint16":          frameOf(MsgQuery, id, []byte{KindNN}, pt, uv(math.MaxUint16)),
		"a query timeout under the default": frameOf(MsgQuery, id, []byte{KindPoint | flagHasTimeout}, pt,
			uv(uint64(defaultTimeoutMicros-1))),
		"a batch timeout under the default": frameOf(MsgBatchQuery, id, uv(uint64(defaultTimeoutMicros-1)), []byte{1}, id, []byte{KindPoint}, pt),
		"a move timeout under the default":  frameOf(MsgMove, id, id, make([]byte, 32), uv(uint64(defaultTimeoutMicros-1))),
		"an ack":                            frameOf(MsgUpdateAck, id, epoch, []byte{0}),
		"stats ending at its histograms":    frameOf(MsgStats, id, make([]byte, 8), []byte{0, 0, 0, 0, 0, 0}),
		"a summary without the gap":         frameOf(MsgSummary, id, []byte{0, 0, 0, 1}, []byte{0, 0, 0, 1}, summaryRow()),
	}
	for name, frame := range accepted {
		if _, _, err := ReadMessage(bytes.NewReader(frame)); err != nil {
			t.Errorf("%s: refused: %v", name, err)
		}
	}

	// The batch cap, with the payload to hold every query: 18 KB frames,
	// kept out of rejectedFrames so the fuzzer is not seeded with them.
	batchOf := func(n int) []byte {
		query := append(append([]byte{}, id...), append([]byte{KindPoint}, pt...)...)
		return frameOf(MsgBatchQuery, id, []byte{0}, uv(uint64(n)), bytes.Repeat(query, n))
	}
	if _, _, err := ReadMessage(bytes.NewReader(batchOf(MaxBatchQueries + 1))); err == nil {
		t.Errorf("a batch count above the cap: accepted")
	}
	if _, _, err := ReadMessage(bytes.NewReader(batchOf(MaxBatchQueries))); err != nil {
		t.Errorf("a full-cap batch: refused: %v", err)
	}
}

// TestQueryCarriesOnlyItsKindsFields: the fields a kind ignores do not
// travel, so a query with them set encodes byte for byte like one without.
func TestQueryCarriesOnlyItsKindsFields(t *testing.T) {
	w := geom.Rect{Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 3, Y: 4}}
	pt := geom.Point{X: 5, Y: 6}
	for _, c := range []struct{ full, bare QueryMsg }{
		{QueryMsg{Kind: KindRange, Mode: ModeIDs, Window: w, Point: pt, K: 4, Eps: 3}, QueryMsg{Kind: KindRange, Mode: ModeIDs, Window: w}},
		{QueryMsg{Kind: KindPoint, Mode: ModeData, Point: pt, Window: w, K: 4, Eps: 3}, QueryMsg{Kind: KindPoint, Mode: ModeData, Point: pt, Eps: 3}},
		{QueryMsg{Kind: KindNN, Mode: ModeData, Point: pt, Window: w, K: 4, Eps: 3}, QueryMsg{Kind: KindNN, Mode: ModeData, Point: pt, K: 4}},
		{QueryMsg{Kind: KindNN, Mode: ModeNeighbors, Point: pt, Window: w, K: 4, Eps: 3}, QueryMsg{Kind: KindNN, Mode: ModeNeighbors, Point: pt, K: 4, Eps: 3}},
	} {
		full, err := EncodeMessage(&c.full)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := EncodeMessage(&c.bare)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, bare) {
			t.Errorf("%+v: %d bytes, %d without its unused fields", c.full, len(full), len(bare))
		}
		got, _, err := ReadMessage(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		if *got.(*QueryMsg) != c.bare {
			t.Errorf("decoded %+v, want %+v", got, c.bare)
		}
	}
}

type codedErr ErrCode

func (e codedErr) Error() string    { return "coded" }
func (e codedErr) ErrCode() ErrCode { return ErrCode(e) }

// TestCodeOf: an error's own code survives wrapping, an error naming none is
// internal, and the text never exceeds what an ErrorMsg may carry.
func TestCodeOf(t *testing.T) {
	if code, text := CodeOf(fmt.Errorf("leg 2: %w", codedErr(CodeUnavailable))); code != CodeUnavailable || text != "leg 2: coded" {
		t.Errorf("wrapped coded error: %v %q", code, text)
	}
	if code, _ := CodeOf(io.ErrUnexpectedEOF); code != CodeInternal {
		t.Errorf("uncoded error: %v, want internal", code)
	}
	code, text := CodeOf(errors.New(strings.Repeat("x", MaxErrorText+100)))
	em := &ErrorMsg{ID: 1, Code: code, Text: text}
	if err := em.Validate(); err != nil || len(text) != MaxErrorText {
		t.Errorf("clamped text: %d bytes, validate: %v", len(text), err)
	}
}

// TestEveryMessageTypeIsNamed: every type the decoder accepts reads as a name
// in an error text ("unexpected move message"), never as "MsgType(18)", and a
// decoded message reports the type it was asked for. A type added to the
// catalogue without a name fails here, as does a change to its 16 types.
func TestEveryMessageTypeIsNamed(t *testing.T) {
	accepted := 0
	for i := 0; i < 256; i++ {
		typ := MsgType(i)
		m, err := newMessage(typ)
		if err != nil {
			continue
		}
		accepted++
		if m.Type() != typ {
			t.Errorf("newMessage(%d) built a %v", i, m.Type())
		}
		if name := typ.String(); strings.HasPrefix(name, "MsgType(") {
			t.Errorf("message type %d (%T) has no name", i, m)
		}
	}
	if accepted != len(msgTypeNames) {
		t.Errorf("%d types decode, %d are named", accepted, len(msgTypeNames))
	}
	if accepted != 16 {
		t.Errorf("%d message types decode, want the catalogue's 16", accepted)
	}
}

// seq returns n consecutive ids from first.
func seq(first uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = first + uint32(i)
	}
	return out
}
