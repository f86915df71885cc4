package proto

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
)

// FuzzRecordList: any record list survives the coding bit for bit when its
// coordinates are finite, is refused when one is NaN or infinite, and never
// codes to more than maxRecordBytes per record past the count. Each record is
// 37 input bytes: a flags byte whose low bit makes A repeat the previous
// record's B (the chained case), the id, and four coordinates' bit patterns.
func FuzzRecordList(f *testing.F) {
	rec := func(chain bool, id uint32, c ...float64) []byte {
		b := []byte{0}
		if chain {
			b[0] = 1
		}
		b = binary.BigEndian.AppendUint32(b, id)
		for _, v := range c {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(cat(rec(false, 7, 52_000.25, 40_001.5, 52_061.75, 40_003), rec(true, 8, 0, 0, 52_100, 40_010.125)))
	f.Add(cat(rec(false, 1, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)), rec(false, 0, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64)))
	f.Add(cat(rec(false, math.MaxUint32, 1, 2, 3, 4), rec(false, 0, 1, 2, 3, 4)))
	f.Add(rec(false, 3, 1, math.NaN(), 2, 2))
	f.Add(rec(false, 3, 1, 1, math.Inf(-1), 2))
	for _, l := range paWindowLists(f, 2) {
		var b []byte
		for i, r := range l[:min(len(l), 8)] {
			chain := i > 0 && r.Seg.A == l[i-1].Seg.B
			b = append(b, rec(chain, r.ID, r.Seg.A.X, r.Seg.A.Y, r.Seg.B.X, r.Seg.B.Y)...)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := make([]Record, len(data)/37)
		finite := true
		for i := range recs {
			p := data[37*i:]
			coord := func(k int) float64 { return math.Float64frombits(binary.BigEndian.Uint64(p[5+8*k:])) }
			r := Record{ID: binary.BigEndian.Uint32(p[1:]), Seg: geom.Segment{
				A: geom.Point{X: coord(0), Y: coord(1)}, B: geom.Point{X: coord(2), Y: coord(3)}}}
			if p[0]&1 != 0 && i > 0 {
				r.Seg.A = recs[i-1].Seg.B
			}
			recs[i] = r
			finite = finite && checkPoint(r.Seg.A) == nil && checkPoint(r.Seg.B) == nil
		}
		enc := appendRecords(nil, recs)
		if limit := binary.MaxVarintLen32 + maxRecordBytes*len(recs); len(enc) > limit {
			t.Fatalf("%d records coded to %d bytes, over the %d bound", len(recs), len(enc), limit)
		}
		d := decoder{b: enc}
		got := d.appendRecords(nil)
		err := d.finish("record list")
		switch {
		case !finite && err == nil:
			t.Fatalf("a list with a non-finite coordinate decoded: %v", got)
		case finite && err != nil:
			t.Fatalf("decoding %v: %v", recs, err)
		case finite && !recordsEqual(got, recs):
			t.Fatalf("round trip changed the list:\n sent %v\n got  %v", recs, got)
		}
	})
}

// TestCoordinateCodingLossless: a point coded against any reference comes
// back bit for bit — signed zeros, subnormals, the extremes of the finite
// range, and the infinities an empty rectangle's corners hold.
func TestCoordinateCodingLossless(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3,
		1, -1, 1.5, 52_000.25, 52_000.250000001, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	for _, x := range vals {
		for _, y := range vals {
			for _, ref := range vals {
				p, r := geom.Point{X: x, Y: y}, geom.Point{X: ref, Y: -ref}
				enc := appendXOR(nil, p, r)
				d := decoder{b: enc}
				if got := d.xorPoint(r); d.finish("point") != nil || !samePoint(got, p) {
					t.Fatalf("%v against %v: got %v (%v)", p, r, got, d.err)
				}
			}
		}
	}
	// A rectangle's Max rides on its Min, the empty one's too.
	for _, r := range []geom.Rect{geom.EmptyRect(), {Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 1, Y: 2}}} {
		d := decoder{b: appendRect(nil, r)}
		if got := d.rect(); d.finish("rect") != nil || got != r && !(got.IsEmpty() && r.IsEmpty()) {
			t.Fatalf("rect %v came back %v (%v)", r, got, d.err)
		}
	}
}

// TestRecordListBounds: a normal list decodes with one allocation, its
// records in about 17 bytes each; a count the payload could hold at the
// smallest record but that passes maxWireRecords is refused before anything
// is reserved, so a frame that claims the most records reserves no more than
// maxWireRecords of them.
func TestRecordListBounds(t *testing.T) {
	lists := paWindowLists(t, 16)
	var recs []Record
	for _, l := range lists {
		recs = append(recs, l...)
	}
	enc := appendRecords(nil, recs)
	perRecord := float64(len(enc)) / float64(len(recs))
	t.Logf("%d records of 16 PA 1 km windows: %.2f B per record", len(recs), perRecord)
	if perRecord > 18 {
		t.Errorf("%.2f B per record, want at most 18", perRecord)
	}
	if !raceEnabled {
		var got []Record
		if n := testing.AllocsPerRun(20, func() {
			d := decoder{b: enc}
			if got = d.appendRecords(nil); d.err != nil {
				t.Fatal(d.err)
			}
		}); n != 1 {
			t.Fatalf("%d-record list into a nil slice: %.2f allocs/op, want exactly 1", len(recs), n)
		}
		if !recordsEqual(got, recs) {
			t.Fatal("round trip changed the list")
		}
	}
	// The smallest record is two bytes, so a payload of 2n bytes may claim n
	// records up to the cap and no further.
	for _, c := range []struct {
		n  int
		ok bool
	}{{maxWireRecords, true}, {maxWireRecords + 1, false}} {
		payload := binary.AppendUvarint(nil, uint64(c.n))
		payload = append(payload, make([]byte, minRecordBytes*(maxWireRecords+1))...)
		d := decoder{b: payload}
		if got := d.count("record", 1, minRecordBytes, maxWireRecords); (d.err == nil) != c.ok || c.ok && got != c.n {
			t.Errorf("a claim of %d records over %d bytes: count %d, err %v", c.n, len(payload), got, d.err)
		}
	}
}

// TestDecodedRecordsRefuseNonFinite: ReadMessage leaves a decoded message's
// records to the record decoder, which must refuse a NaN or an infinity in
// any record, at A or B, in X or Y, whether the record chains its A to the
// B before it or not — in a data list, a shipment and a batch reply's
// item. The same frames with finite coordinates are accepted, and
// AppendFrame refuses to encode any of the bad lists.
func TestDecodedRecordsRefuseNonFinite(t *testing.T) {
	pt := func(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }
	recs := []Record{
		{ID: 4, Seg: geom.Segment{A: pt(1, 2), B: pt(3, 4)}},
		{ID: 5, Seg: geom.Segment{A: pt(3, 4), B: pt(5, 6)}}, // chained
		{ID: 9, Seg: geom.Segment{A: pt(7, 8), B: pt(9, 10)}},
	}
	msgs := func(rs []Record) []Message {
		return []Message{
			&DataListMsg{ID: 1, Records: rs},
			&ShipmentMsg{ID: 1, Coverage: geom.Rect{Max: pt(10, 10)}, Records: rs},
			&BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{1}}, {Recs: rs}}},
		}
	}
	frames := func(rs []Record) [][]byte {
		var out [][]byte
		for _, m := range msgs(rs) {
			// appendPayload, not AppendFrame: the encoder's Validate would
			// refuse the bad coordinate before it reached the wire.
			out = append(out, frameOf(m.Type(), m.appendPayload(nil)))
		}
		return out
	}
	for _, frame := range frames(recs) {
		if _, _, err := ReadMessage(bytes.NewReader(frame)); err != nil {
			t.Fatalf("finite records refused: %v", err)
		}
	}
	for i := range recs {
		for c := 0; c < 4; c++ {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				bad := slices.Clone(recs)
				p := &bad[i].Seg.A
				if c >= 2 {
					p = &bad[i].Seg.B
				}
				if c%2 == 0 {
					p.X = v
				} else {
					p.Y = v
				}
				for _, frame := range frames(bad) {
					if m, _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
						t.Errorf("record %d coordinate %d = %v: %v accepted", i, c, v, m.Type())
					}
				}
				for _, m := range msgs(bad) {
					if _, err := AppendFrame(nil, m); err == nil {
						t.Errorf("record %d coordinate %d = %v: AppendFrame encoded a %v", i, c, v, m.Type())
					}
				}
			}
		}
	}
}

// paWindowLists returns the record lists of n 1 km square windows over the
// PA dataset, each centred on a random segment's midpoint and ascending by
// id, as a data-mode range reply carries them.
func paWindowLists(tb testing.TB, n int) [][]Record {
	tb.Helper()
	ds := dataset.PA()
	rng := rand.New(rand.NewSource(1))
	lists := make([][]Record, n)
	for i := range lists {
		c := ds.Seg(uint32(rng.Intn(ds.Len()))).Midpoint()
		w := geom.Rect{Min: c, Max: c}.Expand(500)
		for id, s := range ds.Segments {
			if s.IntersectsRect(w) {
				lists[i] = append(lists[i], Record{ID: uint32(id), Seg: s})
			}
		}
		sort.Slice(lists[i], func(a, b int) bool { return lists[i][a].ID < lists[i][b].ID })
	}
	return lists
}

// BenchmarkRecordList times the record-list codec on its own over the
// lists of 64 PA 1 km windows: ns/record for encode and for decode into a
// reused slice, and the coding's B/record.
func BenchmarkRecordList(b *testing.B) {
	lists := paWindowLists(b, 64)
	records, bytes := 0, 0
	encoded := make([][]byte, len(lists))
	for i, l := range lists {
		encoded[i] = appendRecords(nil, l)
		records += len(l)
		bytes += len(encoded[i])
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
		b.ReportMetric(float64(bytes)/float64(records), "B/record")
	}
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range lists {
				buf = appendRecords(buf[:0], l)
			}
		}
		perRecord(b)
	})
	b.Run("decode", func(b *testing.B) {
		var dst []Record
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range encoded {
				d := decoder{b: e}
				if dst = d.appendRecords(dst[:0]); d.err != nil {
					b.Fatal(d.err)
				}
			}
		}
		perRecord(b)
	})
}
