// Package proto models the wireless communication software stack of §5.2:
// every message is packaged into TCP segments and IP packets, fragmented
// into MTU-sized frames, and charged both protocol-processing CPU work (per
// packet and per byte, executed on the client's processor model) and
// transfer time at the effective wireless bandwidth.
//
// The effective bandwidth B subsumes channel conditions, noise, and loss, as
// the paper does ("we adjust the delivered bandwidth to model the wireless
// channel condition").
package proto

import (
	"fmt"

	"mobispatial/internal/ops"
)

// Wire-format constants. The MAC overhead models an 802.11-class wireless
// frame (header + FCS).
const (
	TCPHeaderBytes = 20
	IPHeaderBytes  = 20
	MACHeaderBytes = 34
	// MTU is the maximum IP datagram size on the link.
	MTU = 1500
	// MSS is the TCP payload per full segment.
	MSS = MTU - TCPHeaderBytes - IPHeaderBytes
)

// Transfer describes one message's wire footprint.
type Transfer struct {
	// PayloadBytes is the application payload.
	PayloadBytes int
	// Packets is the number of frames on the air.
	Packets int
	// WireBytes is the total bytes on the air including TCP/IP/MAC headers.
	WireBytes int
}

// Packetize computes the wire footprint of a payload. A zero-byte payload
// still costs one frame (the request/ack must be carried).
func Packetize(payloadBytes int) Transfer {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	packets := (payloadBytes + MSS - 1) / MSS
	if packets == 0 {
		packets = 1
	}
	return Transfer{
		PayloadBytes: payloadBytes,
		Packets:      packets,
		WireBytes:    payloadBytes + packets*(TCPHeaderBytes+IPHeaderBytes+MACHeaderBytes),
	}
}

// Seconds returns the air time of the transfer at bandwidth bps.
func (t Transfer) Seconds(bandwidthBps float64) float64 {
	if bandwidthBps <= 0 {
		return 0
	}
	return float64(t.WireBytes*8) / bandwidthBps
}

// ChargeProcessing charges the protocol-processing CPU cost of sending or
// receiving the transfer to rec: per-packet header/driver work, per-byte
// checksum-and-copy work, and the buffer traffic at BufferBase.
func (t Transfer) ChargeProcessing(rec ops.Recorder, sending bool) {
	rec.Op(ops.OpProtoPacket, t.Packets)
	rec.Op(ops.OpProtoByte, t.PayloadBytes)
	if sending {
		// Build: read the payload from the app buffer, write the framed
		// bytes into the NIC buffer.
		rec.Load(ops.BufferBase, t.PayloadBytes)
		rec.Store(ops.BufferBase+1<<24, t.WireBytes)
	} else {
		// Receive: read frames from the NIC buffer, deliver the payload.
		rec.Load(ops.BufferBase+1<<24, t.WireBytes)
		rec.Store(ops.BufferBase, t.PayloadBytes)
	}
}

// Message sizes of the work-partitioning protocol (§4). All sizes in bytes.
// Object ids are 4 bytes; a query descriptor carries the query type, its
// geometry parameters, and (for the insufficient-memory scenario) the
// client's memory availability.
//
// These are the paper's catalogue, which the simulator and the live
// planner price — not the live wire's sizes. The wire (wire.go, lists.go)
// sends a query's used fields only and run-codes its id lists, so a reply
// is usually far smaller than IDListBytes says; the planner keeps these
// figures until its per-stage model error can measure what the shift
// would do to its choices.
const (
	QueryRequestBytes = 64
	ObjectIDBytes     = 4
	// ListHeaderBytes prefixes every variable-length list (count, query id,
	// status).
	ListHeaderBytes = 16
)

// IDListBytes returns the payload size of a message carrying n object ids
// (used when the data is present at the client: the server sends ids only).
func IDListBytes(n int) int { return ListHeaderBytes + n*ObjectIDBytes }

// DataListBytes returns the payload size of a message carrying n full data
// records of the given record size (used when the data is absent at the
// client).
func DataListBytes(n, recordBytes int) int { return ListHeaderBytes + n*recordBytes }

// BatchQueryBytes returns the payload size of a request carrying n query
// descriptors in one message — micro-batching shares one list header across
// the batch.
func BatchQueryBytes(n int) int { return ListHeaderBytes + n*QueryRequestBytes }

// BatchIDListBytes returns the payload size of a reply answering n queries
// with totalIDs object ids overall: one shared list header plus a small
// per-item header (count + status) plus the ids.
func BatchIDListBytes(n, totalIDs int) int {
	return ListHeaderBytes + n*8 + totalIDs*ObjectIDBytes
}

// ShipmentBytes returns the payload size of an insufficient-memory shipment:
// data records plus the serialized sub-index.
func ShipmentBytes(items, recordBytes, indexBytes int) int {
	return ListHeaderBytes + items*recordBytes + indexBytes
}

// AckFrames returns the number of TCP acknowledgment frames a receiver
// emits for a transfer of the given packet count under the delayed-ACK
// policy (one ACK per two full segments, at least one).
func AckFrames(packets int) int {
	if packets <= 0 {
		return 0
	}
	return (packets + 1) / 2
}

// AckTransfer returns the wire footprint of n pure-ACK frames (headers
// only, no payload).
func AckTransfer(n int) Transfer {
	if n <= 0 {
		return Transfer{}
	}
	return Transfer{
		PayloadBytes: 0,
		Packets:      n,
		WireBytes:    n * (TCPHeaderBytes + IPHeaderBytes + MACHeaderBytes),
	}
}

// Validate sanity-checks the wire constants (used by config printers).
func Validate() error {
	if MSS <= 0 {
		return fmt.Errorf("proto: non-positive MSS %d", MSS)
	}
	return nil
}
