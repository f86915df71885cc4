// wire.go turns the message catalogue that the simulator only *counts*
// (proto.go: query request, candidate/object id lists, data payloads, index
// shipments) into a real binary wire format that the networked service
// (internal/serve) actually marshals. Every message is carried in one frame:
//
//	uvarint payload length (1–4 bytes) | uint8 message type | payload
//
// Fixed-width integers are big-endian; floats are IEEE-754 bit patterns.
// Every message opens with its request id, a uvarint, so a connection can
// pipeline requests and match responses arriving out of order. A field that
// counts rather than measures — the request id, an object id, a k, a batch
// count, a timeout — is a uvarint and costs what its value needs. A request
// carries a timeout only when it is tighter than DefaultTimeout, the budget
// both ends assume without one. The read path's three hot shapes are not
// fixed-width either: a query carries only the fields its kind uses (below),
// and id and record lists are run-coded and endpoint-chained (lists.go).
//
// The catalogue is 16 types, numbered 1–19 across this file, batch.go,
// cluster.go and update.go; 12, 13 and 16 are retired and refused as
// unknown. Every decoder, the control frames' included, refuses bytes its
// message does not account for: every client, router and backend is in this
// tree and upgrades together, so no frame carries room for a peer's future.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"mobispatial/internal/geom"
)

// MsgType identifies a wire message.
type MsgType uint8

// The wire message catalogue — the §4 protocol's messages plus the
// transport-level error and ping frames a real service needs.
const (
	// MsgQuery is a client→server query request (the §4 "query message").
	MsgQuery MsgType = 1 + iota
	// MsgIDList carries object or candidate ids only — the data-at-client
	// reply of §6.1.1 and the candidate list of filter-server schemes.
	MsgIDList
	// MsgDataList carries full data records — the data-absent reply.
	MsgDataList
	// MsgShipmentReq asks the server for an insufficient-memory shipment
	// (Fig. 2): data + sub-index covering a window under a byte budget.
	MsgShipmentReq
	// MsgShipment is the shipment reply: records plus the coverage
	// guarantee rectangle (the client rebuilds the sub-index locally).
	MsgShipment
	// MsgError is a per-request failure reply.
	MsgError
	// MsgPing is an echo frame; clients use it to measure RTT and, with a
	// large payload, effective bandwidth.
	MsgPing
	// MsgStatsReq asks the server for its metrics snapshot (stats.go).
	MsgStatsReq
	// MsgStats is the snapshot reply: counters, gauges, histogram summaries.
	MsgStats
)

var msgTypeNames = map[MsgType]string{
	MsgQuery:       "query",
	MsgIDList:      "id-list",
	MsgDataList:    "data-list",
	MsgShipmentReq: "shipment-req",
	MsgShipment:    "shipment",
	MsgError:       "error",
	MsgPing:        "ping",
	MsgStatsReq:    "stats-req",
	MsgStats:       "stats",
	MsgBatchQuery:  "batch-query",
	MsgBatchReply:  "batch-reply",
	MsgSummaryReq:  "summary-req",
	MsgSummary:     "summary",
	MsgDelete:      "delete",
	MsgMove:        "move",
	MsgUpdateAck:   "update-ack",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Framing limits.
const (
	// MaxFrameHeaderBytes is the longest frame header: a four-byte length
	// uvarint and the type byte. A payload under 128 bytes takes a
	// two-byte header.
	MaxFrameHeaderBytes = maxLengthBytes + 1
	// MaxFramePayload bounds one frame's payload; larger frames are a
	// protocol error (shipments dominate: 64 MB holds ~1.8M records).
	MaxFramePayload = 64 << 20
	// MaxErrorText bounds the error message text.
	MaxErrorText = 1024
	// MaxPingPayload bounds the ping echo payload.
	MaxPingPayload = 1 << 20
	// maxLengthBytes is the longest length uvarint: four bytes carry 28
	// bits, which MaxFramePayload fits.
	maxLengthBytes = 4
)

// DefaultTimeout is a request's time budget when it names none: what a
// client allows one attempt and what a server allows one request, admission
// wait included. A request asks for less by carrying a timeout; it cannot ask
// for more, so a budget at or above DefaultTimeout travels as no timeout.
const DefaultTimeout = 5 * time.Second

// defaultTimeoutMicros is DefaultTimeout in the wire's unit.
const defaultTimeoutMicros = uint32(DefaultTimeout / time.Microsecond)

// wireTimeout is the timeout field a budget of micros travels as: itself when
// tighter than DefaultTimeout, else 0, the field's "none".
func wireTimeout(micros uint32) uint32 {
	if micros >= defaultTimeoutMicros {
		return 0
	}
	return micros
}

// DefaultPointEps is the point-query incidence tolerance in map units: a
// street is "at" a point when it passes within this distance. It is what
// QueryMsg.Eps == 0 means, the figure a router picks such a query's ranges
// with, and the simulator's refinement tolerance — the one definition
// core.PointEps and serve.DefaultPointEps name.
const DefaultPointEps = 2.0

// Query kinds on the wire (mirrors core.QueryKind; proto cannot import core).
const (
	KindPoint uint8 = 0
	KindRange uint8 = 1
	KindNN    uint8 = 2
)

// Mode selects what the server computes and returns for a query.
type Mode uint8

// The execution modes, mapping Table 1's schemes onto the wire.
const (
	// ModeData: the server filters and refines and returns full records —
	// fully-server with the data absent at the client.
	ModeData Mode = iota
	// ModeIDs: the server filters and refines and returns ids only —
	// fully-server with the data present at the client (§6.1.1).
	ModeIDs
	// ModeFilter: the server filters only and returns candidate ids — the
	// server half of filter-server/refine-client.
	ModeFilter
	// ModeNeighbors: the server answers a k-NN query with (id, exact
	// distance) pairs, nearest first — a router's k-NN leg, with its running
	// bound in Eps. Valid on KindNN only, and answered only as a batch item.
	ModeNeighbors
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeData:
		return "data"
	case ModeIDs:
		return "ids"
	case ModeFilter:
		return "filter"
	case ModeNeighbors:
		return "neighbors"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ErrCode classifies a MsgError reply.
type ErrCode uint16

// Error codes.
const (
	CodeBadRequest ErrCode = 1 + iota
	// CodeOverload: admission control rejected the request (backpressure).
	CodeOverload
	// CodeDeadline: the request missed its deadline.
	CodeDeadline
	// CodeShutdown: the server is draining.
	CodeShutdown
	// CodeUnsupported: the operation is not available (e.g. no master
	// index for shipments).
	CodeUnsupported
	CodeInternal ErrCode = 100
)

// String implements fmt.Stringer.
func (c ErrCode) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeOverload:
		return "overload"
	case CodeDeadline:
		return "deadline"
	case CodeShutdown:
		return "shutdown"
	case CodeUnsupported:
		return "unsupported"
	case CodeUnavailable:
		return "unavailable"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("ErrCode(%d)", uint16(c))
}

// Message is one wire message. Concrete types live in this package only; the
// encode/decode halves are unexported so the frame format stays closed.
type Message interface {
	Type() MsgType
	// RequestID returns the pipelining correlation id.
	RequestID() uint32
	// Validate checks the message is well-formed enough to put on (or
	// accept from) the wire.
	Validate() error
	appendPayload(b []byte) []byte
	decodePayload(b []byte) error
}

// Request is a message a client sends and a server answers: the messages that
// have an envelope to fill. It is what lets the client stamp any request and
// the server read any request's time budget without either knowing the
// catalogue type by type.
type Request interface {
	Message
	// Stamp fills the envelope: the pipelining id, and the server-side time
	// budget in microseconds where the message carries one.
	Stamp(id, timeoutMicros uint32)
	// Timeout returns the budget (0 = DefaultTimeout; a decoded request
	// reads 0 for any budget at or above it, which never travels). ok is
	// false for the control requests — ping, stats, summary — which carry
	// none on the wire: they cost the server no query work, and it answers
	// them outside admission control.
	Timeout() (micros uint32, ok bool)
}

func (m *QueryMsg) Stamp(id, micros uint32)       { m.ID, m.TimeoutMicros = id, micros }
func (m *QueryMsg) Timeout() (uint32, bool)       { return m.TimeoutMicros, true }
func (m *BatchQueryMsg) Stamp(id, micros uint32)  { m.ID, m.TimeoutMicros = id, micros }
func (m *BatchQueryMsg) Timeout() (uint32, bool)  { return m.TimeoutMicros, true }
func (m *ShipmentReqMsg) Stamp(id, micros uint32) { m.ID, m.TimeoutMicros = id, micros }
func (m *ShipmentReqMsg) Timeout() (uint32, bool) { return m.TimeoutMicros, true }
func (m *DeleteMsg) Stamp(id, micros uint32)      { m.ID, m.TimeoutMicros = id, micros }
func (m *DeleteMsg) Timeout() (uint32, bool)      { return m.TimeoutMicros, true }
func (m *MoveMsg) Stamp(id, micros uint32)        { m.ID, m.TimeoutMicros = id, micros }
func (m *MoveMsg) Timeout() (uint32, bool)        { return m.TimeoutMicros, true }
func (m *PingMsg) Stamp(id, _ uint32)             { m.ID = id }
func (m *PingMsg) Timeout() (uint32, bool)        { return 0, false }
func (m *StatsReqMsg) Stamp(id, _ uint32)         { m.ID = id }
func (m *StatsReqMsg) Timeout() (uint32, bool)    { return 0, false }
func (m *SummaryReqMsg) Stamp(id, _ uint32)       { m.ID = id }
func (m *SummaryReqMsg) Timeout() (uint32, bool)  { return 0, false }

// Record is one shipped data record: the segment id plus its geometry — the
// wire form of a TIGER record's spatial part.
type Record struct {
	ID  uint32
	Seg geom.Segment
}

// QueryMsg is a query request.
type QueryMsg struct {
	ID   uint32
	Kind uint8 // KindPoint, KindRange, KindNN
	Mode Mode
	// K is the neighbor count for NN queries (0 and 1 both mean single NN).
	K uint16
	// Point is the query point (point and NN kinds).
	Point geom.Point
	// Window is the query window (range kind).
	Window geom.Rect
	// Eps is the point-incidence tolerance in map units; 0 means
	// DefaultPointEps. On a KindNN query in ModeNeighbors it is the router's
	// running k-th-neighbor distance instead: the backend may prune any
	// subtree whose lower bound exceeds it, and 0 means unbounded. It is a
	// pruning hint only — a reply may include neighbors farther than it.
	// Any other KindNN query, and every range query, ignores it, and the
	// wire does not carry it for them.
	Eps float64
	// TimeoutMicros caps the server-side processing time in microseconds;
	// 0, like any budget at or above DefaultTimeout, means DefaultTimeout.
	TimeoutMicros uint32
}

// Type implements Message.
func (m *QueryMsg) Type() MsgType { return MsgQuery }

// RequestID implements Message.
func (m *QueryMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *QueryMsg) Validate() error {
	if m.Kind > KindNN {
		return fmt.Errorf("proto: bad query kind %d", m.Kind)
	}
	if m.Mode > ModeNeighbors {
		return fmt.Errorf("proto: bad query mode %d", m.Mode)
	}
	if m.Kind == KindNN && m.Mode == ModeFilter {
		return fmt.Errorf("proto: NN query has no filter-only mode")
	}
	if m.Kind != KindNN && m.Mode == ModeNeighbors {
		return fmt.Errorf("proto: neighbors mode on a non-NN query")
	}
	if m.Eps < 0 || math.IsNaN(m.Eps) || math.IsInf(m.Eps, 0) {
		return fmt.Errorf("proto: bad eps %v", m.Eps)
	}
	// Both geometry fields are validated regardless of kind: the wire drops
	// a field the kind does not use, but a caller that filled it with
	// garbage still hears about it.
	if err := checkRect(m.Window); err != nil {
		return err
	}
	if err := checkPoint(m.Point); err != nil {
		return err
	}
	if m.Kind == KindRange && m.Window.IsEmpty() {
		return fmt.Errorf("proto: empty range window")
	}
	return nil
}

// A query on the wire is its id, one flags byte, and then only what its kind
// uses:
//
//	uvarint id | flags | point (point) / window (range) / point + uvarint K (NN)
//	           | f64 eps if flagHasEps | uvarint timeout if flagHasTimeout
//
// flags holds the kind in bits 0-1 and the mode in bits 2-3. Eps travels only
// when it is set and means something: on a point query, and on a k-NN leg in
// ModeNeighbors, where it is the router's bound. The timeout travels only
// when it is tighter than DefaultTimeout.
const (
	flagModeShift  = 2
	flagHasEps     = 1 << 4
	flagHasTimeout = 1 << 5
	flagsKnown     = flagHasTimeout<<1 - 1
	// minQueryBytes is the shortest query: a one-byte id, flags and a point.
	minQueryBytes = 1 + 1 + 16
)

// epsOnWire reports whether a query of this kind and mode carries Eps.
func epsOnWire(kind uint8, mode Mode) bool {
	return kind == KindPoint || kind == KindNN && mode == ModeNeighbors
}

func (m *QueryMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	flags := m.Kind | byte(m.Mode)<<flagModeShift
	eps := m.Eps != 0 && epsOnWire(m.Kind, m.Mode)
	if eps {
		flags |= flagHasEps
	}
	timeout := wireTimeout(m.TimeoutMicros)
	if timeout != 0 {
		flags |= flagHasTimeout
	}
	b = append(b, flags)
	switch m.Kind {
	case KindRange:
		b = appendRect(b, m.Window)
	case KindNN:
		b = appendUvarint(appendPoint(b, m.Point), uint32(m.K))
	default:
		b = appendPoint(b, m.Point)
	}
	if eps {
		b = appendF64(b, m.Eps)
	}
	if timeout != 0 {
		b = appendUvarint(b, timeout)
	}
	return b
}

func (m *QueryMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	d.query(m)
	return d.finish("query")
}

// query decodes one query into m, every field the frame does not carry
// zeroed. A frame is refused for unknown flag bits, a kind outside the
// catalogue, or an eps its kind and mode do not carry.
func (d *decoder) query(m *QueryMsg) {
	*m = QueryMsg{ID: d.uv32()}
	flags := d.u8()
	if d.err != nil {
		return
	}
	if flags&^flagsKnown != 0 {
		d.err = fmt.Errorf("unknown query flag bits %#x", flags&^flagsKnown)
		return
	}
	m.Kind, m.Mode = flags&3, Mode(flags>>flagModeShift&3)
	switch m.Kind {
	case KindPoint:
		m.Point = d.point()
	case KindRange:
		m.Window = d.rect()
	case KindNN:
		m.Point, m.K = d.point(), d.k()
	default:
		d.err = fmt.Errorf("bad query kind %d", m.Kind)
		return
	}
	if flags&flagHasEps != 0 {
		if !epsOnWire(m.Kind, m.Mode) {
			d.err = fmt.Errorf("eps on a kind %d query in %v mode, which carries none", m.Kind, m.Mode)
			return
		}
		m.Eps = d.f64()
	}
	if flags&flagHasTimeout != 0 {
		if m.TimeoutMicros = d.timeout(); d.err == nil && m.TimeoutMicros == 0 {
			d.err = fmt.Errorf("timeout flag on a zero timeout")
		}
	}
}

// IDListMsg carries object or candidate ids.
type IDListMsg struct {
	ID uint32
	// Epoch is the server's index-state fingerprint at answer time (the
	// qcache hint: any acknowledged write changes it). Zero means the
	// server offers no epoch information — older servers and routers.
	// Clients use it to validate semantically cached shipments.
	Epoch uint64
	IDs   []uint32
}

// Type implements Message.
func (m *IDListMsg) Type() MsgType { return MsgIDList }

// RequestID implements Message.
func (m *IDListMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *IDListMsg) Validate() error {
	if n := len(m.IDs); n > maxWireIDs {
		return fmt.Errorf("proto: id list of %d ids exceeds frame limit", n)
	}
	return nil
}

func (m *IDListMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = binaryAppendU64(b, m.Epoch)
	return appendIDs(b, m.IDs)
}

func (m *IDListMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.Epoch = d.u64()
	m.IDs = d.appendIDs(m.IDs[:0])
	return d.finish("id-list")
}

// DataListMsg carries full data records.
type DataListMsg struct {
	ID uint32
	// Epoch is the index-state fingerprint, as on IDListMsg; 0 = none.
	Epoch   uint64
	Records []Record
}

// Type implements Message.
func (m *DataListMsg) Type() MsgType { return MsgDataList }

// RequestID implements Message.
func (m *DataListMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *DataListMsg) Validate() error { return validateRecords("data list", m.Records) }

func (m *DataListMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = binaryAppendU64(b, m.Epoch)
	return appendRecords(b, m.Records)
}

func (m *DataListMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.Epoch = d.u64()
	m.Records = d.appendRecords(m.Records[:0])
	return d.finish("data-list")
}

// ShipmentReqMsg asks for a Fig. 2 shipment.
type ShipmentReqMsg struct {
	ID uint32
	// Window is the triggering query window the shipment must cover.
	Window geom.Rect
	// BudgetBytes is the client memory available for data + index.
	BudgetBytes uint32
	// RecordBytes is the client's record size, so the server can size the
	// selection (record payloads are larger than the wire form: they
	// include attributes).
	RecordBytes uint32
	// TimeoutMicros is the request's budget, as on QueryMsg.
	TimeoutMicros uint32
}

// Type implements Message.
func (m *ShipmentReqMsg) Type() MsgType { return MsgShipmentReq }

// RequestID implements Message.
func (m *ShipmentReqMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *ShipmentReqMsg) Validate() error {
	if err := checkRect(m.Window); err != nil {
		return err
	}
	if m.BudgetBytes == 0 {
		return fmt.Errorf("proto: zero shipment budget")
	}
	if m.RecordBytes < 16 {
		return fmt.Errorf("proto: shipment record size %d < 16", m.RecordBytes)
	}
	return nil
}

func (m *ShipmentReqMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendRect(b, m.Window)
	b = appendU32(b, m.BudgetBytes)
	b = appendU32(b, m.RecordBytes)
	return appendUvarint(b, wireTimeout(m.TimeoutMicros))
}

func (m *ShipmentReqMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.Window = d.rect()
	m.BudgetBytes = d.u32()
	m.RecordBytes = d.u32()
	m.TimeoutMicros = d.timeout()
	return d.finish("shipment-req")
}

// ShipmentMsg is the shipment reply. An empty Coverage rectangle means the
// shipment carries no coverage guarantee (the answer alone overflowed the
// budget — §4's re-request case).
type ShipmentMsg struct {
	ID uint32
	// Epoch is the index-state fingerprint the shipment was cut under; a
	// client may answer covered queries locally while later replies carry
	// the same non-zero hint. Zero means the shipment carries no currency
	// claim (older servers, or an index that has diverged from the master
	// tree shipments are cut from).
	Epoch    uint64
	Coverage geom.Rect
	Records  []Record
}

// Type implements Message.
func (m *ShipmentMsg) Type() MsgType { return MsgShipment }

// RequestID implements Message.
func (m *ShipmentMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *ShipmentMsg) Validate() error {
	if err := checkRect(m.Coverage); err != nil {
		return err
	}
	return validateRecords("shipment", m.Records)
}

func (m *ShipmentMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = binaryAppendU64(b, m.Epoch)
	b = appendRect(b, m.Coverage)
	return appendRecords(b, m.Records)
}

func (m *ShipmentMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.Epoch = d.u64()
	m.Coverage = d.rect()
	m.Records = d.appendRecords(nil)
	return d.finish("shipment")
}

// ErrorMsg is a per-request failure reply.
type ErrorMsg struct {
	ID   uint32
	Code ErrCode
	Text string
}

// Type implements Message.
func (m *ErrorMsg) Type() MsgType { return MsgError }

// RequestID implements Message.
func (m *ErrorMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *ErrorMsg) Validate() error {
	if m.Code == 0 {
		return fmt.Errorf("proto: error message with zero code")
	}
	if len(m.Text) > MaxErrorText {
		return fmt.Errorf("proto: error text %d bytes exceeds %d", len(m.Text), MaxErrorText)
	}
	return nil
}

// Error implements the error interface so servers' MsgError replies can be
// returned directly by client libraries.
func (m *ErrorMsg) Error() string {
	return fmt.Sprintf("server error %v: %s", m.Code, m.Text)
}

// CodeOf maps an error onto the wire: the code it names through an ErrCode()
// method anywhere in its chain (CodeInternal when it names none), and its
// text clamped to MaxErrorText. It is the one place a Go error becomes an
// ErrorMsg or a failed BatchItem, on a server and on a router alike.
func CodeOf(err error) (ErrCode, string) {
	code, text := CodeInternal, err.Error()
	var ec interface{ ErrCode() ErrCode }
	if errors.As(err, &ec) {
		code = ec.ErrCode()
	}
	return code, text[:min(len(text), MaxErrorText)]
}

func (m *ErrorMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendU16(b, uint16(m.Code))
	b = appendU16(b, uint16(len(m.Text)))
	return append(b, m.Text...)
}

func (m *ErrorMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.Code = ErrCode(d.u16())
	n := int(d.u16())
	m.Text = string(d.bytes(n))
	return d.finish("error")
}

// PingMsg is echoed verbatim by the server.
type PingMsg struct {
	ID      uint32
	Payload []byte
}

// Type implements Message.
func (m *PingMsg) Type() MsgType { return MsgPing }

// RequestID implements Message.
func (m *PingMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *PingMsg) Validate() error {
	if len(m.Payload) > MaxPingPayload {
		return fmt.Errorf("proto: ping payload %d bytes exceeds %d", len(m.Payload), MaxPingPayload)
	}
	return nil
}

func (m *PingMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendU32(b, uint32(len(m.Payload)))
	return append(b, m.Payload...)
}

func (m *PingMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	n := int(d.u32())
	m.Payload = append(m.Payload[:0], d.bytes(n)...)
	return d.finish("ping")
}

// newMessage returns the empty concrete type for a wire type, drawing
// hot-path types from their pools (their decodePayload methods reset every
// field, reusing slice capacity).
func newMessage(t MsgType) (Message, error) {
	switch t {
	case MsgQuery:
		return queryPool.Get().(*QueryMsg), nil
	case MsgIDList:
		return idListPool.Get().(*IDListMsg), nil
	case MsgDataList:
		return dataListPool.Get().(*DataListMsg), nil
	case MsgShipmentReq:
		return shipReqPool.Get().(*ShipmentReqMsg), nil
	case MsgShipment:
		return &ShipmentMsg{}, nil
	case MsgError:
		return &ErrorMsg{}, nil
	case MsgPing:
		return pingPool.Get().(*PingMsg), nil
	case MsgStatsReq:
		return &StatsReqMsg{}, nil
	case MsgStats:
		return &StatsMsg{}, nil
	case MsgBatchQuery:
		return batchQueryPool.Get().(*BatchQueryMsg), nil
	case MsgBatchReply:
		return batchReplyPool.Get().(*BatchReplyMsg), nil
	case MsgSummaryReq:
		return &SummaryReqMsg{}, nil
	case MsgSummary:
		return &SummaryMsg{}, nil
	case MsgDelete:
		return deletePool.Get().(*DeleteMsg), nil
	case MsgMove:
		return movePool.Get().(*MoveMsg), nil
	case MsgUpdateAck:
		return updateAckPool.Get().(*UpdateAckMsg), nil
	}
	return nil, fmt.Errorf("proto: unknown message type %d", uint8(t))
}

// AppendFrame validates m and appends its complete frame to dst, growing it
// as needed — the allocation-free encode path for callers that own a
// reusable buffer. The payload is encoded behind a one-byte length; a frame
// of 128 payload bytes or more, whose length takes more, is shifted up to
// make room.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, 0, byte(m.Type()))
	dst = m.appendPayload(dst)
	payload := len(dst) - start - 2
	if payload < 0x80 {
		dst[start] = byte(payload)
		return dst, nil
	}
	if payload > MaxFramePayload {
		return dst[:start], fmt.Errorf("proto: %v frame payload %d exceeds %d", m.Type(), payload, MaxFramePayload)
	}
	var hdr [maxLengthBytes]byte
	n := binary.PutUvarint(hdr[:], uint64(payload))
	end := len(dst)
	dst = append(dst, hdr[1:n]...)
	copy(dst[start+n:], dst[start+1:end])
	copy(dst[start:], hdr[:n])
	return dst, nil
}

// EncodeMessage validates m and returns its complete frame in a fresh
// buffer.
func EncodeMessage(m Message) ([]byte, error) {
	b, err := AppendFrame(make([]byte, 0, MaxFrameHeaderBytes+64), m)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// WriteMessage frames and writes m in a single Write call (callers serialize
// concurrent writers with their own mutex; one call keeps frames intact for
// any io.Writer that does not split writes). The encode buffer is pooled, so
// a warm write allocates nothing.
func WriteMessage(w io.Writer, m Message) (int, error) {
	pb := getBuf()
	b, err := AppendFrame((*pb)[:0], m)
	if err != nil {
		putBuf(pb)
		return 0, err
	}
	n, err := w.Write(b)
	*pb = b
	putBuf(pb)
	return n, err
}

// ReadMessage reads one frame and decodes and validates it. It returns the
// message and the total frame size in bytes (header included) — load
// generators and the client's bandwidth estimator use the size. The header is
// read a byte at a time, so nothing past the frame is consumed.
//
// The returned message is pooled: callers that finish with it (and with
// every slice it carries) should pass it to ReleaseMessage so the next
// decode reuses it; callers that keep any part of it just don't release.
func ReadMessage(r io.Reader) (Message, int, error) {
	pb := getBuf()
	defer putBuf(pb)
	buf := *pb
	if cap(buf) < MaxFrameHeaderBytes {
		buf = make([]byte, 0, 4096)
	}
	n, hdrLen, t, err := readHeader(r, buf[:1])
	if err != nil {
		return nil, 0, err
	}
	m, err := newMessage(t)
	if err != nil {
		return nil, 0, err
	}
	var payload []byte
	if int(n) <= payloadChunk || int(n) <= cap(buf) {
		// Small (or already-fitting) payload: read into the pooled buffer.
		if cap(buf) < int(n) {
			buf = make([]byte, 0, int(n))
		}
		*pb = buf
		payload = buf[:n]
		_, err = io.ReadFull(r, payload)
	} else {
		// Big frame: grow chunkwise as bytes actually arrive, so a lying
		// length prefix costs one chunk, not a MaxFramePayload allocation.
		payload, err = readPayloadChunked(r, int(n))
	}
	if err != nil {
		ReleaseMessage(m)
		return nil, 0, fmt.Errorf("proto: short %v frame: %w", t, err)
	}
	if err := m.decodePayload(payload); err != nil {
		ReleaseMessage(m)
		return nil, 0, err
	}
	if err := m.Validate(); err != nil {
		ReleaseMessage(m)
		return nil, 0, err
	}
	return m, hdrLen + int(n), nil
}

// readHeader reads a frame header: the payload length, a uvarint of at most
// maxLengthBytes in its shortest form, and the type byte. A length that is
// malformed or above MaxFramePayload is refused here, before the caller
// reserves anything for it. scratch is the one-byte buffer each header byte
// is read into. An input that ends before the first byte returns
// io.EOF; one that ends inside the header, io.ErrUnexpectedEOF.
func readHeader(r io.Reader, scratch []byte) (n uint32, size int, t MsgType, err error) {
	next := func() (byte, error) {
		_, err := io.ReadFull(r, scratch)
		return scratch[0], err
	}
	for shift := 0; ; shift += 7 {
		c, err := next()
		if err != nil {
			if size > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, 0, err
		}
		size++
		n |= uint32(c&0x7f) << shift
		if c < 0x80 {
			if c == 0 && size > 1 {
				return 0, 0, 0, fmt.Errorf("proto: frame length in a padded %d-byte varint", size)
			}
			break
		}
		if size == maxLengthBytes {
			return 0, 0, 0, fmt.Errorf("proto: frame length varint longer than %d bytes", maxLengthBytes)
		}
	}
	if n > MaxFramePayload {
		return 0, 0, 0, fmt.Errorf("proto: frame payload %d exceeds %d", n, MaxFramePayload)
	}
	c, err := next()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, size + 1, MsgType(c), err
}

// payloadChunk is the allocation granularity for big incoming frame
// payloads, and the ceiling on what the direct pooled-buffer read path will
// allocate upfront on the word of a length prefix.
const payloadChunk = 64 << 10

// readPayloadChunked reads exactly n payload bytes, growing the buffer
// chunkwise.
func readPayloadChunked(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, payloadChunk)
	for len(b) < n {
		m := n - len(b)
		if m > payloadChunk {
			m = payloadChunk
		}
		off := len(b)
		b = append(b, make([]byte, m)...)
		if _, err := io.ReadFull(r, b[off:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ---- encoding helpers ----

// appendUvarint appends v as a uvarint, one byte below 128 without a call.
func appendUvarint(b []byte, v uint32) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, uint64(v))
}

func appendU16(b []byte, v uint16) []byte       { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte       { return binary.BigEndian.AppendUint32(b, v) }
func binaryAppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
func appendPoint(b []byte, p geom.Point) []byte { return appendF64(appendF64(b, p.X), p.Y) }
func appendRect(b []byte, r geom.Rect) []byte   { return appendPoint(appendPoint(b, r.Min), r.Max) }

func checkPoint(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("proto: non-finite coordinate %v", p)
	}
	return nil
}

// checkRect rejects NaN corners but allows the canonical empty rectangle
// (Min > Max with infinite corners — geom.EmptyRect), which ShipmentMsg uses
// for "no coverage guarantee". NaN is rejected even in empty rectangles:
// IsEmpty is true when either axis is inverted, so a rect empty on one axis
// could otherwise smuggle NaN through on the other (found by fuzzing).
func checkRect(r geom.Rect) error {
	for _, v := range [...]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if math.IsNaN(v) {
			return fmt.Errorf("proto: NaN rectangle corner %v", r)
		}
	}
	if r.IsEmpty() {
		return nil
	}
	if err := checkPoint(r.Min); err != nil {
		return err
	}
	return checkPoint(r.Max)
}

// decoder is a bounds-checked big-endian reader over one payload.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("truncated at byte %d (need %d of %d)", d.off, n, len(d.b))
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// uv32 reads a uvarint that must fit a uint32: a request or object id, a
// count.
func (d *decoder) uv32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > math.MaxUint32 {
		d.err = fmt.Errorf("varint %d leaves uint32", v)
		return 0
	}
	return uint32(v)
}

// k reads a query's neighbor count, a uvarint that must fit QueryMsg.K.
func (d *decoder) k() uint16 {
	v := d.uv32()
	if d.err == nil && v > math.MaxUint16 {
		d.err = fmt.Errorf("k %d leaves uint16", v)
		return 0
	}
	return uint16(v)
}

// timeout reads a request's timeout field. A budget at or above
// DefaultTimeout never travels (wireTimeout), so one on the wire is refused:
// it would not re-encode as it arrived.
func (d *decoder) timeout() uint32 {
	v := d.uv32()
	if d.err == nil && v >= defaultTimeoutMicros {
		d.err = fmt.Errorf("timeout %d µs is not below the %v default", v, DefaultTimeout)
		return 0
	}
	return v
}

func (d *decoder) f64() float64 {
	if !d.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) point() geom.Point { return geom.Point{X: d.f64(), Y: d.f64()} }
func (d *decoder) rect() geom.Rect   { return geom.Rect{Min: d.point(), Max: d.point()} }

func (d *decoder) bytes(n int) []byte {
	if n < 0 || !d.need(n) {
		if d.err == nil {
			d.err = fmt.Errorf("negative length %d", n)
		}
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("proto: bad %s frame: %w", what, d.err)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("proto: %s frame has %d trailing bytes", what, len(d.b)-d.off)
	}
	return nil
}
