package proto

import (
	"bytes"
	"testing"

	"mobispatial/internal/geom"
)

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
