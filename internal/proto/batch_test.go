package proto

import (
	"bytes"
	"io"
	"testing"

	"mobispatial/internal/geom"
)

func testBatchQuery(n int) *BatchQueryMsg {
	m := &BatchQueryMsg{ID: 42, TimeoutMicros: 250_000}
	for i := 0; i < n; i++ {
		m.Queries = append(m.Queries, QueryMsg{
			ID:   uint32(i),
			Kind: KindRange,
			Mode: ModeIDs,
			Window: geom.Rect{
				Min: geom.Point{X: float64(i), Y: float64(i)},
				Max: geom.Point{X: float64(i + 1), Y: float64(i + 1)},
			},
		})
	}
	return m
}

// TestBatchFrameAmortizesHeaders pins the batching arithmetic the energy
// model relies on: a batch of N queries costs one frame, and its payload
// grows by exactly one encoded query per query — a range query's one-byte
// id, flags byte and window.
func TestBatchFrameAmortizesHeaders(t *testing.T) {
	one, err := AppendFrame(nil, testBatchQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	sixteen, err := AppendFrame(nil, testBatchQuery(16))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, q := range testBatchQuery(16).Queries[1:] {
		want += 1 + 1 + len(appendRect(nil, q.Window))
	}
	if got := len(sixteen) - headerLen(sixteen) - len(one) + headerLen(one); got != want {
		t.Fatalf("batch growth: got %d bytes per 15 queries, want %d", got, want)
	}
	// One query message alone costs a full frame header; in a batch of 16 the
	// shared overhead is under a tenth of that per query.
	single, err := AppendFrame(nil, &QueryMsg{ID: 1, Kind: KindRange, Mode: ModeIDs,
		Window: geom.Rect{Max: geom.Point{X: 1, Y: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	perQuery := float64(len(sixteen)) / 16
	if perQuery >= float64(len(single)) {
		t.Fatalf("batched query costs %.1f wire bytes, unbatched %d — batching should be cheaper", perQuery, len(single))
	}
}

// TestBatchReplyDecodeReusesItems round-trips two different replies through
// one pooled message and requires the second decode to fully overwrite the
// first — the aliasing hazard of item reuse.
func TestBatchReplyDecodeReusesItems(t *testing.T) {
	first := &BatchReplyMsg{ID: 1, Items: []BatchItem{
		{IDs: []uint32{1, 2, 3, 4, 5}},
		{Recs: []Record{{ID: 4, Seg: geom.Segment{B: geom.Point{X: 1, Y: 1}}}}}, // must not survive into second's empty item
		{Err: CodeDeadline, Text: "late"},
		{Recs: []Record{{ID: 7, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}}}},
	}}
	second := &BatchReplyMsg{ID: 2, Items: []BatchItem{
		{IDs: []uint32{9}},
		{}, // empty answer
	}}

	var buf bytes.Buffer
	for _, m := range []Message{first, second} {
		if _, err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	got1, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(first, got1) {
		t.Fatalf("first reply mismatch: %+v", got1)
	}
	ReleaseMessage(got1)
	got2, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r2, ok := got2.(*BatchReplyMsg)
	if !ok {
		t.Fatalf("got %T", got2)
	}
	if !wireEqual(second, got2) {
		t.Fatalf("reused decode mismatch:\n want %+v\n got  %+v", second, r2)
	}
	if len(r2.Items) != 2 {
		t.Fatalf("stale items survived reuse: %d", len(r2.Items))
	}
	ReleaseMessage(got2)
}

// TestBatchRejectsCorruptFrames exercises the batch decoders' bounds checks.
func TestBatchRejectsCorruptFrames(t *testing.T) {
	frame, err := AppendFrame(nil, testBatchQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadMessage(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncated batch at %d accepted", cut)
		}
	}
	// Count disagreeing with the payload size.
	h := headerLen(frame)
	bad := append([]byte(nil), frame...)
	bad[h+1+3] = 99 << 1 // the count, after the one-byte id and the three-byte timeout
	if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
		t.Fatal("mismatched batch count accepted")
	}

	reply, err := AppendFrame(nil, &BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{1, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown item tag.
	badTag := append([]byte(nil), reply...)
	badTag[2+1+1] = 0x7F // first item tag (after the header, the unstamped head and the count)
	if _, _, err := ReadMessage(bytes.NewReader(badTag)); err == nil {
		t.Fatal("unknown batch item tag accepted")
	}
	// Hostile id count inside an item must error, not allocate wildly.
	badN := append([]byte(nil), reply...)
	badN[2+1+1+1] = 0xFF // first item's id-count varint
	if _, _, err := ReadMessage(bytes.NewReader(badN)); err == nil {
		t.Fatal("hostile batch item id count accepted")
	}
}

// TestBatchSizeHelpers sanity-checks the model-level batch sizing used by
// the planner's energy accounting.
func TestBatchSizeHelpers(t *testing.T) {
	if BatchQueryBytes(1) <= QueryRequestBytes {
		t.Fatal("batch of one should still carry the list header")
	}
	// Batching must amortize: N queries in one message cost less than N
	// separate messages.
	if BatchQueryBytes(16) >= 16*(ListHeaderBytes+QueryRequestBytes) {
		t.Fatal("BatchQueryBytes does not amortize the header")
	}
	if BatchIDListBytes(16, 160) >= 16*IDListBytes(10) {
		t.Fatal("BatchIDListBytes does not amortize the header")
	}
}

// TestReleaseMessageRoundTrip checks that releasing and reacquiring pooled
// messages yields clean values.
func TestReleaseMessageRoundTrip(t *testing.T) {
	q := AcquireQuery()
	q.ID, q.Kind, q.K = 9, KindNN, 5
	ReleaseMessage(q)
	q2 := AcquireQuery()
	if *q2 != (QueryMsg{}) {
		t.Fatalf("released query not zeroed: %+v", q2)
	}
	ReleaseMessage(q2)

	b := AcquireBatchQuery()
	if b.ID != 0 || b.TimeoutMicros != 0 || len(b.Queries) != 0 {
		t.Fatalf("acquired batch not clean: %+v", b)
	}
	b.Queries = append(b.Queries, QueryMsg{ID: 1})
	ReleaseMessage(b)
}

// TestReadMessageChunkedPath covers the big-frame path that bypasses the
// pooled buffer.
func TestReadMessageChunkedPath(t *testing.T) {
	big := &PingMsg{ID: 5, Payload: make([]byte, payloadChunk+1234)}
	for i := range big.Payload {
		big.Payload[i] = byte(i)
	}
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !wireEqual(big, got) {
		t.Fatal("chunked payload mismatch")
	}
	// A lying length prefix on a short stream errors out.
	var lie bytes.Buffer
	if _, err := WriteMessage(&lie, big); err != nil {
		t.Fatal(err)
	}
	short := lie.Bytes()[:MaxFrameHeaderBytes+100]
	if _, _, err := ReadMessage(io.MultiReader(bytes.NewReader(short))); err == nil {
		t.Fatal("short chunked frame accepted")
	}
}
