// update.go extends the wire catalogue with the mutable-world messages: live
// object updates against an updatable shard subsystem (internal/mutable).
// There are two write verbs. A move is the one upsert: it carries full
// segment geometry, and an object's first position report is a move like
// every later one. A delete carries the id only (the mobile client that drops
// out of the world does not know — or care — where its last position landed
// server-side). Every update is acknowledged with MsgUpdateAck carrying the
// owning shard's base epoch, which is how clients and the router observe
// compaction progress and measure staleness. Ids and timeouts are uvarints:
//
//	delete: id | object id | timeout (0: DefaultTimeout)
//	move:   id | object id | A | B | timeout
//	ack:    id | u64 epoch | flags
//
// Update semantics are deliberately idempotent so the client retry path and
// the router's replica fan-out need no exactly-once machinery: a move is an
// upsert keyed by object id, a delete of a missing id succeeds with
// Existed=false.
package proto

import (
	"fmt"

	"mobispatial/internal/geom"
)

// The update message types, continuing the catalogue in cluster.go. 16 is
// reserved: it was an insert verb, retired because a move is the same
// upsert, and a decoder refuses it as an unknown type.
const (
	// MsgDelete removes one object by id.
	MsgDelete MsgType = 17
	// MsgMove places or re-positions one object: the one upsert. Backends not
	// owning the new position answer it by deleting their stale local copy.
	MsgMove MsgType = 18
	// MsgUpdateAck acknowledges any update, carrying the shard epoch.
	MsgUpdateAck MsgType = 19
)

// checkSegment validates update geometry: both endpoints finite (NaN/Inf
// coordinates are rejected exactly like query geometry). Zero-length
// segments — point objects — are legal.
func checkSegment(s geom.Segment) error {
	if err := checkPoint(s.A); err != nil {
		return err
	}
	return checkPoint(s.B)
}

// DeleteMsg removes one object by id. Deleting an absent id is not an error:
// the ack reports Existed=false.
type DeleteMsg struct {
	ID            uint32
	ObjID         uint32
	TimeoutMicros uint32
}

// Type implements Message.
func (m *DeleteMsg) Type() MsgType { return MsgDelete }

// RequestID implements Message.
func (m *DeleteMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *DeleteMsg) Validate() error { return nil }

func (m *DeleteMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, m.ObjID)
	return appendUvarint(b, wireTimeout(m.TimeoutMicros))
}

func (m *DeleteMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.ObjID = d.uv32()
	m.TimeoutMicros = d.timeout()
	return d.finish("delete")
}

// MoveMsg places object ObjID at Seg, replacing any previous position: the
// one upsert, so an object's first write is a move too. A backend that
// applies it tells a first placement from a re-position itself (the ack's
// Existed) and meters the two apart.
type MoveMsg struct {
	ID            uint32
	ObjID         uint32
	Seg           geom.Segment
	TimeoutMicros uint32
}

// Type implements Message.
func (m *MoveMsg) Type() MsgType { return MsgMove }

// RequestID implements Message.
func (m *MoveMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *MoveMsg) Validate() error { return checkSegment(m.Seg) }

func (m *MoveMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, m.ObjID)
	b = appendPoint(b, m.Seg.A)
	b = appendXOR(b, m.Seg.B, m.Seg.A)
	return appendUvarint(b, wireTimeout(m.TimeoutMicros))
}

func (m *MoveMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.ObjID = d.uv32()
	m.Seg.A = d.point()
	m.Seg.B = d.xorPoint(m.Seg.A)
	m.TimeoutMicros = d.timeout()
	return d.finish("move")
}

// Update-ack flag bits (wire encoding of the two booleans).
const (
	ackFlagExisted = 1 << 0
	ackFlagOwned   = 1 << 1
)

// UpdateAckMsg acknowledges one update. It does not echo the object id: the
// request id already names the update it answers.
type UpdateAckMsg struct {
	ID uint32
	// ObjID does not travel; a decoded ack reads 0. The field stays only
	// because the benchmark's ladder (bench/ladder.go) still fills it.
	ObjID uint32
	// Epoch is the owning shard's base epoch at apply time — it advances at
	// every compaction swap, so the gap between acked epochs and a later
	// snapshot's epoch gauges is the observable staleness of the packed base.
	// For a fanned-out write it is the minimum epoch across the replicas
	// that applied it.
	Epoch uint64
	// Existed reports whether the object id was present before the update.
	Existed bool
	// Owned reports whether the answering server owns the object's (new)
	// position: false when a move or delete merely cleared a stale copy —
	// or found nothing — on a non-owning server.
	Owned bool
}

// Type implements Message.
func (m *UpdateAckMsg) Type() MsgType { return MsgUpdateAck }

// RequestID implements Message.
func (m *UpdateAckMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *UpdateAckMsg) Validate() error { return nil }

func (m *UpdateAckMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = binaryAppendU64(b, m.Epoch)
	var flags uint8
	if m.Existed {
		flags |= ackFlagExisted
	}
	if m.Owned {
		flags |= ackFlagOwned
	}
	return append(b, flags)
}

func (m *UpdateAckMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.ObjID = 0
	m.Epoch = d.u64()
	flags := d.u8()
	if d.err == nil && flags&^uint8(ackFlagExisted|ackFlagOwned) != 0 {
		d.err = fmt.Errorf("unknown ack flags %#x", flags)
	}
	m.Existed = flags&ackFlagExisted != 0
	m.Owned = flags&ackFlagOwned != 0
	return d.finish("update-ack")
}
