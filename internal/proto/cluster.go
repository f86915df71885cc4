// cluster.go extends the wire catalogue with the distributed serving tier's
// handshake. A coordinator (internal/router) fetches each backend's summary
// — the Hilbert key ranges it holds — at registration, then fans client
// queries to the owning backends. An id-mode range or point query's leg
// rides MsgQuery, the frame the client sent; every other leg is a
// MsgBatchQuery item, and every leg that asks for records — a data-mode
// window or point, a filter window a router-tier cache fills from
// (ModeCandidates), a k-NN — is answered with the records its backend's walk
// matched, which the router merges by id. A k-NN leg is a KindNN item in
// ModeCandidates: the running k-th-neighbor bound rides in its Eps (so a
// later server prunes against earlier servers' answers), and the router
// recomputes each record's distance with the one DistToPoint every engine
// uses, so its merge is bit-identical to a single engine's answer.
package proto

import (
	"fmt"

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

// minSummaryRowBytes is the shortest encoded RangeInfo: its fixed fields,
// the MBR's Min and a Max equal to it.
const minSummaryRowBytes = 4 + 4 + 8 + 8 + 8 + 16 + 1

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
	n := d.u32()
	if rest := uint32(len(d.b) - d.off); d.err == nil && (n > MaxSummaryRanges || n*minSummaryRowBytes > rest) {
		return fmt.Errorf("proto: summary range count %d does not fit %d payload bytes", n, rest)
	}
	m.Ranges = m.Ranges[:0]
	for i := 0; i < int(n) && d.err == nil; i++ {
		m.Ranges = append(m.Ranges, RangeInfo{
			Index:   d.u32(),
			Items:   d.u32(),
			Lo:      d.u64(),
			Hi:      d.u64(),
			Version: d.u64(),
			MBR:     d.rect(),
		})
	}
	return d.finish("summary")
}
