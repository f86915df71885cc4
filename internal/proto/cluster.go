// cluster.go extends the wire catalogue with the distributed serving tier's
// messages: the router↔backend handshake, and the neighbor list a k-NN leg
// is answered with. A coordinator (internal/router) fetches each backend's
// summary — the Hilbert key ranges it holds — at registration, then fans
// client queries to the owning backends. A single range or point query's leg
// rides MsgQuery, the frame the client sent; every other leg is a
// MsgBatchQuery. A k-NN leg is a KindNN item in ModeNeighbors, which carries
// what the cross-server best-first visit needs: the running k-th-neighbor
// bound in the item's Eps (so a later server prunes against earlier
// servers' answers) and exact per-neighbor distances in the reply item (so
// the router merges legs without re-deriving geometry).
package proto

import (
	"fmt"
	"math"
	"slices"

	"mobispatial/internal/geom"
)

// The cluster message types, continuing the catalogue in wire.go. 12 and 13
// are reserved: they were a k-NN-only leg and its reply, and a decoder
// refuses them as unknown types.
const (
	// MsgSummaryReq asks a backend for its partition summary.
	MsgSummaryReq MsgType = 14
	// MsgSummary is the summary reply: the Hilbert key ranges the backend
	// holds.
	MsgSummary MsgType = 15
)

// CodeUnavailable: no healthy replica covers part of the query — the
// distributed tier's "try again later" (transient, like overload).
const CodeUnavailable ErrCode = 6

// MaxSummaryRanges bounds the ranges one summary may carry.
const MaxSummaryRanges = 4096

// Neighbor is one (k-)NN answer on the wire: the object id and its exact
// distance to the query point. The wire form of rtree.Neighbor.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// wireNeighborBytes is the encoded size of one Neighbor.
const wireNeighborBytes = 4 + 8

// validateNeighbors checks a neighbor list fits a frame and carries only
// real distances.
func validateNeighbors(what string, nbs []Neighbor) error {
	if n := len(nbs); n > (MaxFramePayload-8)/wireNeighborBytes {
		return fmt.Errorf("proto: %s of %d neighbors exceeds frame limit", what, n)
	}
	for i, nb := range nbs {
		if math.IsNaN(nb.Dist) || nb.Dist < 0 {
			return fmt.Errorf("proto: %s neighbor %d has bad distance %v", what, i, nb.Dist)
		}
	}
	return nil
}

func appendNeighbors(b []byte, nbs []Neighbor) []byte {
	b = appendU32(b, uint32(len(nbs)))
	for _, nb := range nbs {
		b = appendU32(b, nb.ID)
		b = appendF64(b, nb.Dist)
	}
	return b
}

// appendNeighborsN appends n decoded neighbors to dst, reusing its capacity,
// with the same bounds discipline as appendIDs.
func (d *decoder) appendNeighborsN(dst []Neighbor, n int) []Neighbor {
	if d.err != nil || n <= 0 {
		if n < 0 && d.err == nil {
			d.err = fmt.Errorf("negative neighbor count %d", n)
		}
		return dst
	}
	if !d.need(n * wireNeighborBytes) {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, Neighbor{ID: d.u32(), Dist: d.f64()})
	}
	return dst
}

// SummaryReqMsg asks a backend for its partition summary. Servers answer it
// like a stats request — bypassing admission control — so a router can
// register against a saturated backend.
type SummaryReqMsg struct {
	ID uint32
}

// Type implements Message.
func (m *SummaryReqMsg) Type() MsgType { return MsgSummaryReq }

// RequestID implements Message.
func (m *SummaryReqMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *SummaryReqMsg) Validate() error { return nil }

func (m *SummaryReqMsg) appendPayload(b []byte) []byte { return appendUvarint(b, m.ID) }

func (m *SummaryReqMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	return d.finish("summary-req")
}

// RangeInfo describes one contiguous Hilbert key range a backend holds: its
// index in the cluster-wide assignment, the inclusive key interval, the item
// count, and the MBR of the items — the router's routing and NN-pruning
// metadata.
type RangeInfo struct {
	Index uint32
	Items uint32
	// Lo and Hi are the inclusive Hilbert key interval of the range's items
	// under the partitioning quantizer.
	Lo, Hi uint64
	// Version is the holder's monotone write-version counter for this
	// range's shard at summary time — the freshness signal the router's
	// refresh loop and cluster-wide result-cache validity are built on.
	// 0 means the backend has no per-range version (a frozen pool).
	Version uint64
	MBR     geom.Rect
}

// summaryRowBytes is the encoded size of one RangeInfo.
const summaryRowBytes = 4 + 4 + 8 + 8 + 8 + 32

// SummaryMsg is a backend's partition summary. A monolithic (unpartitioned)
// server reports NumRanges=1 with a single range covering everything. On the
// wire the row count follows NumRanges directly, and the rows end the frame.
type SummaryMsg struct {
	ID uint32
	// NumRanges is the cluster-wide total range count the backend was
	// configured with; every backend of one cluster must agree on it.
	NumRanges uint32
	// Ranges lists the ranges this backend holds (primary and replica alike).
	Ranges []RangeInfo
}

// Type implements Message.
func (m *SummaryMsg) Type() MsgType { return MsgSummary }

// RequestID implements Message.
func (m *SummaryMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *SummaryMsg) Validate() error {
	if len(m.Ranges) > MaxSummaryRanges {
		return fmt.Errorf("proto: summary with %d ranges exceeds %d", len(m.Ranges), MaxSummaryRanges)
	}
	if m.NumRanges == 0 && len(m.Ranges) > 0 {
		return fmt.Errorf("proto: summary holds %d ranges of a zero-range cluster", len(m.Ranges))
	}
	for i, r := range m.Ranges {
		if r.Index >= m.NumRanges {
			return fmt.Errorf("proto: summary range %d has index %d >= %d", i, r.Index, m.NumRanges)
		}
		if r.Lo > r.Hi {
			return fmt.Errorf("proto: summary range %d has inverted keys [%d, %d]", i, r.Lo, r.Hi)
		}
		if err := checkRect(r.MBR); err != nil {
			return fmt.Errorf("proto: summary range %d: %w", i, err)
		}
	}
	return nil
}

func (m *SummaryMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendU32(b, m.NumRanges)
	b = appendU32(b, uint32(len(m.Ranges)))
	for _, r := range m.Ranges {
		b = appendU32(b, r.Index)
		b = appendU32(b, r.Items)
		b = binaryAppendU64(b, r.Lo)
		b = binaryAppendU64(b, r.Hi)
		b = binaryAppendU64(b, r.Version)
		b = appendRect(b, r.MBR)
	}
	return b
}

func (m *SummaryMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.NumRanges = d.u32()
	n := int(d.u32())
	if rest := len(d.b) - d.off; d.err == nil && n*summaryRowBytes != rest {
		return fmt.Errorf("proto: summary range count %d does not match %d payload bytes", n, rest)
	}
	m.Ranges = m.Ranges[:0]
	if d.err == nil && d.need(n*summaryRowBytes) {
		for i := 0; i < n; i++ {
			m.Ranges = append(m.Ranges, RangeInfo{
				Index:   d.u32(),
				Items:   d.u32(),
				Lo:      d.u64(),
				Hi:      d.u64(),
				Version: d.u64(),
				MBR:     d.rect(),
			})
		}
	}
	return d.finish("summary")
}
