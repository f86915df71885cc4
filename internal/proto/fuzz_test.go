package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadMessage throws arbitrary bytes at the frame decoder. The decoder
// must never panic, and any frame it accepts must survive a re-encode /
// re-decode round trip (the decode→encode fixed point that keeps the wire
// format closed under forwarding). Seeds are the full round-trip corpus plus
// hand-built corrupt frames from the unit tests.
func FuzzReadMessage(f *testing.F) {
	for _, m := range allMessages() {
		frame, err := EncodeMessage(m)
		if err != nil {
			f.Fatalf("%v: %v", m.Type(), err)
		}
		f.Add(frame)
	}
	// Corrupt seeds: oversized length prefix, unknown type, short frame.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0x01})
	f.Add([]byte{0, 0xEE})
	f.Add([]byte{9, byte(MsgPing), 1, 2, 3})
	// Header seeds at the varint's edges: a five-byte length, a padded one,
	// one cut short, and the one- and two-byte lengths of 127 and 128.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01, byte(MsgPing)})
	f.Add([]byte{0x85, 0x00, byte(MsgPing), 1, 0, 0, 0, 0})
	f.Add([]byte{0x80})
	for _, n := range []int{127, 128} {
		ping := &PingMsg{ID: 1, Payload: make([]byte, n-5)} // id and length take 5
		if frame, err := EncodeMessage(ping); err == nil {
			f.Add(frame)
		}
	}
	// Field seeds at the varint's edges: ids, an object id, k and a batch's
	// timeout at 0, 127, 128, 16 383, 16 384 and the top. Batch counts past
	// 127 are left to TestVarintFieldsRoundTrip: a seed of 128 queries is
	// 2 KB, and the fuzzer spends its time minimizing every input it grows
	// from one.
	for _, v := range varintEdges {
		for _, m := range []Message{
			&QueryMsg{ID: v, Kind: KindNN, K: uint16(v), TimeoutMicros: v},
			&DeleteMsg{ID: v, ObjID: v, TimeoutMicros: v},
			&BatchQueryMsg{ID: v, TimeoutMicros: v, Queries: make([]QueryMsg, 1)},
		} {
			if frame, err := EncodeMessage(m); err == nil {
				f.Add(frame)
			}
		}
	}
	// Update-path seeds: a move whose segment smuggles NaN coordinate bits
	// (must be rejected by Validate after decode, not crash), the same move
	// relabelled as type 16, the retired insert (refused whatever the
	// payload), and an ack with unknown flag bits set (must be rejected so
	// re-encoding stays canonical).
	if move, err := EncodeMessage(&MoveMsg{ID: 1, ObjID: 2}); err == nil {
		nan := append([]byte(nil), move...)
		seg := headerLen(move) + 2 // the header, the request id and the object id
		for i := seg; i < seg+8; i++ {
			nan[i] = 0xFF
		}
		f.Add(nan)
		move[1] = 16
		f.Add(move)
	}
	if ack, err := EncodeMessage(&UpdateAckMsg{ID: 1, Epoch: 3}); err == nil {
		ack[len(ack)-1] = 0xF0 // unknown flag bits
		f.Add(ack)
	}
	// A batch reply's neighbors item whose distance carries NaN bits: the
	// decoder must refuse it, or it would not re-encode.
	if nbrs, err := EncodeMessage(&BatchReplyMsg{ID: 1, Items: []BatchItem{{Nbrs: []Neighbor{{ID: 2, Dist: 1}}}}}); err == nil {
		for i := len(nbrs) - 8; i < len(nbrs); i++ {
			nbrs[i] = 0xFF
		}
		f.Add(nbrs)
	}
	// A router's bounded k-NN leg, the bound in a neighbors item's Eps, and
	// its twin whose Eps carries +Inf bits: the decoder must refuse the
	// second, or the bound would not re-encode as a finite hint.
	leg := &BatchQueryMsg{ID: 1, Queries: []QueryMsg{{Kind: KindNN, Mode: ModeNeighbors, K: 8, Eps: 12.5}}}
	if frame, err := EncodeMessage(leg); err == nil {
		f.Add(frame)
		inf := append([]byte(nil), frame...)
		// Eps is the frame's last field: the leg's query carries no timeout.
		binary.BigEndian.PutUint64(inf[len(inf)-8:], 0x7FF0000000000000)
		f.Add(inf)
		// The same leg relabelled as type 12, the retired k-NN-only leg: the
		// decoder must refuse the type whatever the payload.
		retired := append([]byte(nil), frame...)
		retired[headerLen(frame)-1] = 12
		f.Add(retired)
	}
	// Hand-built frames each decoder must refuse: lying counts, ids and
	// record ids leaving uint32, an over-cap run, a first record flagged as
	// sharing, unknown query flag bits, eps on a kind that carries none, and
	// the control frames' retired shapes (a stats tail, a summary gap).
	for _, frame := range rejectedFrames() {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Refuse declared payloads beyond 1 MB up front: the decoder handles
		// them (chunked reads fail fast on truncated input), but a fuzzer
		// that learns to complete huge frames would only slow itself down.
		if n, k := binary.Uvarint(data); k > 0 && n > 1<<20 {
			return
		}
		m, n, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n < 2 || n > len(data) {
			t.Fatalf("accepted frame reports %d bytes of %d input", n, len(data))
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ReadMessage returned a message failing its own Validate: %v", err)
		}
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted %v failed: %v", m.Type(), err)
		}
		m2, _, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded %v failed: %v", m.Type(), err)
		}
		if m2.Type() != m.Type() || m2.RequestID() != m.RequestID() {
			t.Fatalf("round trip drifted: %v/%d -> %v/%d",
				m.Type(), m.RequestID(), m2.Type(), m2.RequestID())
		}
		if !wireEqual(m, m2) {
			t.Fatalf("round trip not a fixed point:\n first  %+v\n second %+v", m, m2)
		}
	})
}

// FuzzIDList: any id list, in any order, survives the run coding unchanged,
// and its encoding never exceeds maxIDBytes per id past the count.
func FuzzIDList(f *testing.F) {
	for _, ids := range [][]uint32{
		nil,
		seq(0, 200),
		{7, 6, 5, 5, 5, 0},
		{0xFFFFFFFF, 0, 0xFFFFFFFF, 0xFFFFFFFE, 0xFFFFFFFF},
		append(seq(100, 3), append(seq(40, 18), seq(4_000_000_000, 70)...)...),
	} {
		f.Add(appendU32s(nil, ids))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]uint32, len(data)/4)
		for i := range ids {
			ids[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		enc := appendIDs(nil, ids)
		if limit := binary.MaxVarintLen32 + maxIDBytes*len(ids); len(enc) > limit {
			t.Fatalf("%d ids encoded to %d bytes, over the %d bound", len(ids), len(enc), limit)
		}
		d := decoder{b: enc}
		got := d.appendIDs(nil)
		if err := d.finish("id-list"); err != nil {
			t.Fatalf("decoding %v: %v", ids, err)
		}
		if !slicesEqual(got, ids) {
			t.Fatalf("round trip changed the list:\n sent %v\n got  %v", ids, got)
		}
	})
}

func appendU32s(b []byte, ids []uint32) []byte {
	for _, id := range ids {
		b = appendU32(b, id)
	}
	return b
}
