package proto

import (
	"bytes"
	"testing"

	"mobispatial/internal/geom"
)

// TestStatsSkipsUnknownExtensions pins the snapshot's forward-compatibility
// contract: a stats frame carrying trailing extension sections this decoder
// does not know must still decode — the known sections intact, the unknown
// tail skipped. This is what lets an old mqtop read a newer router's
// snapshot instead of erroring on "trailing bytes".
func TestStatsSkipsUnknownExtensions(t *testing.T) {
	m := &StatsMsg{ID: 3, UptimeMicros: 99,
		Counters: []StatCounter{{Name: "router_fanout_total", Value: 12}},
		Gauges:   []StatGauge{{Name: "router_backends", Value: 3}},
	}
	payload := m.appendPayload(nil)

	// Append two extension sections a future snapshot shape might carry:
	// tag byte + u32 length + opaque payload.
	payload = append(payload, 0xAA)
	payload = appendU32(payload, 5)
	payload = append(payload, "hello"...)
	payload = append(payload, 0xBB)
	payload = appendU32(payload, 0)

	var got StatsMsg
	if err := got.decodePayload(payload); err != nil {
		t.Fatalf("decode with extensions: %v", err)
	}
	if got.ID != m.ID || got.UptimeMicros != m.UptimeMicros {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if len(got.Counters) != 1 || got.Counters[0] != m.Counters[0] {
		t.Fatalf("counters mismatch: got %+v", got.Counters)
	}
	if len(got.Gauges) != 1 || got.Gauges[0] != m.Gauges[0] {
		t.Fatalf("gauges mismatch: got %+v", got.Gauges)
	}

	// Malformed framing — a section length past the payload end — must
	// still be an error, not a silent truncation.
	bad := m.appendPayload(nil)
	bad = append(bad, 0xCC)
	bad = appendU32(bad, 1000)
	if err := new(StatsMsg).decodePayload(bad); err == nil {
		t.Fatal("decode accepted extension length past payload end")
	}
}

// TestNNQueryReleaseReuse pins the pooled k-NN leg cycle: a router's leg is
// a one-item ModeNeighbors batch acquired from the pool, its bound rides in
// Eps through encode and decode, and the reply's neighbor slice capacity
// survives a release.
func TestNNQueryReleaseReuse(t *testing.T) {
	q := AcquireBatchQuery()
	q.ID = 5
	q.Queries = append(q.Queries, QueryMsg{Kind: KindNN, Mode: ModeNeighbors, Point: geom.Point{X: 1, Y: 2}, K: 3, Eps: 7.5})
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, q); err != nil {
		t.Fatalf("write: %v", err)
	}
	ReleaseMessage(q)
	got, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	gq, ok := got.(*BatchQueryMsg)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if gq.ID != 5 || len(gq.Queries) != 1 || gq.Queries[0].K != 3 || gq.Queries[0].Eps != 7.5 {
		t.Fatalf("decoded %+v", gq)
	}
	ReleaseMessage(gq)
	if q2 := AcquireBatchQuery(); q2.ID != 0 || len(q2.Queries) != 0 {
		t.Fatalf("release left a batch behind: %+v", q2)
	}

	r := &BatchReplyMsg{ID: 5, Items: []BatchItem{{Nbrs: make([]Neighbor, 2, 16)}}}
	r.Items[0].Nbrs[0], r.Items[0].Nbrs[1] = Neighbor{ID: 1, Dist: 2}, Neighbor{ID: 4, Dist: 3}
	ReleaseMessage(r)
	if r.ID != 0 || len(r.Items) != 0 {
		t.Fatalf("release left state behind: %+v", r)
	}
	if it := r.Items[:1][0]; len(it.Nbrs) != 0 || cap(it.Nbrs) != 16 {
		t.Fatalf("release dropped the neighbor capacity or kept the answer: len %d cap %d", len(it.Nbrs), cap(it.Nbrs))
	}
}

// TestSummaryDecodeRejectsBadCount guards the length-vs-count cross-check.
func TestSummaryDecodeRejectsBadCount(t *testing.T) {
	m := &SummaryMsg{ID: 1, NumRanges: 1, Ranges: []RangeInfo{{Index: 0, Lo: 0, Hi: 10}}}
	payload := m.appendPayload(nil)
	payload = append(payload, 0xEE) // stray byte breaks count*size == remaining
	if err := new(SummaryMsg).decodePayload(payload); err == nil {
		t.Fatal("decode accepted summary with trailing garbage")
	}
}

// TestSummaryReadsReservedHeader: the header gap where a summary carried a
// backend-wide item count and bounds is skipped whatever it holds, so a
// summary from a backend that still fills it reads as the same rows.
func TestSummaryReadsReservedHeader(t *testing.T) {
	m := &SummaryMsg{ID: 2, NumRanges: 2, Ranges: []RangeInfo{
		{Index: 1, Items: 9, Lo: 4, Hi: 40, Version: 3,
			MBR: geom.Rect{Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 3, Y: 4}}},
	}}
	payload := m.appendPayload(nil)
	for i := 8; i < 8+summaryReservedBytes; i++ {
		payload[i] = 0x3F // a count and a rect's worth of non-zero bytes
	}
	var got SummaryMsg
	if err := got.decodePayload(payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != m.ID || got.NumRanges != m.NumRanges || len(got.Ranges) != 1 || got.Ranges[0] != m.Ranges[0] {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
}
