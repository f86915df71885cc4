// batch.go: the micro-batching wire messages. §4.1's protocol cost has a
// fixed per-exchange part (frame headers, packet headers, the NIC's
// sleep→active transition) and a per-result part; batching N queries into
// one frame exchange amortizes the fixed part over N. One BatchQueryMsg
// carries N independent queries; the BatchReplyMsg answers all of them in
// order, each sub-answer succeeding or failing independently.
package proto

import (
	"fmt"
	"slices"
)

// The batch message types extend the catalogue of wire.go.
const (
	// MsgBatchQuery carries N query requests in one frame.
	MsgBatchQuery MsgType = 10
	// MsgBatchReply answers a batch: one item per query, in request order.
	MsgBatchReply MsgType = 11
)

// MaxBatchQueries bounds one batch's sub-queries.
const MaxBatchQueries = 1024

// BatchQueryMsg is N queries in one frame. The per-query TimeoutMicros
// fields are ignored; the batch-level timeout governs the whole exchange.
//
//	uvarint id | uvarint timeout (0: DefaultTimeout) | uvarint count | queries
type BatchQueryMsg struct {
	ID            uint32
	TimeoutMicros uint32
	Queries       []QueryMsg
}

// Type implements Message.
func (m *BatchQueryMsg) Type() MsgType { return MsgBatchQuery }

// RequestID implements Message.
func (m *BatchQueryMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *BatchQueryMsg) Validate() error {
	if len(m.Queries) == 0 {
		return fmt.Errorf("proto: empty batch")
	}
	if len(m.Queries) > MaxBatchQueries {
		return fmt.Errorf("proto: batch of %d queries exceeds %d", len(m.Queries), MaxBatchQueries)
	}
	for i := range m.Queries {
		if err := m.Queries[i].Validate(); err != nil {
			return fmt.Errorf("proto: batch query %d: %w", i, err)
		}
	}
	return nil
}

func (m *BatchQueryMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, wireTimeout(m.TimeoutMicros))
	b = appendUvarint(b, uint32(len(m.Queries)))
	for i := range m.Queries {
		b = m.Queries[i].appendPayload(b)
	}
	return b
}

func (m *BatchQueryMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.TimeoutMicros = d.timeout()
	// The queries are self-delimiting and decoded in sequence; the count is
	// checked against the shortest query before anything is reserved.
	n := d.uv32()
	if rest := uint32(len(d.b) - d.off); d.err == nil && (n > MaxBatchQueries || n*minQueryBytes > rest) {
		return fmt.Errorf("proto: batch count %d does not fit %d payload bytes", n, rest)
	}
	qs := slices.Grow(m.Queries[:0], int(n))
	for i := 0; i < int(n) && d.err == nil; i++ {
		qs = append(qs, QueryMsg{})
		if d.query(&qs[i]); d.err != nil {
			d.err = fmt.Errorf("query %d: %w", i, d.err)
		}
	}
	m.Queries = qs
	return d.finish("batch-query")
}

// BatchItem is one sub-answer of a batch reply. Exactly one of the four
// shapes is meaningful: an error (Err != 0), records (data-mode answers),
// neighbors (neighbors-mode answers, nearest first), or ids (everything
// else — an empty answer is an empty id list).
type BatchItem struct {
	IDs  []uint32
	Recs []Record
	Nbrs []Neighbor
	Err  ErrCode
	Text string
}

// Batch item payload tags.
const (
	batchTagIDs  = 0
	batchTagRecs = 1
	batchTagErr  = 2
	batchTagNbrs = 3
)

// tag picks the deterministic wire shape of an item from its contents, so
// decode→encode is a fixed point.
func (it *BatchItem) tag() uint8 {
	switch {
	case it.Err != 0:
		return batchTagErr
	case len(it.Recs) > 0:
		return batchTagRecs
	case len(it.Nbrs) > 0:
		return batchTagNbrs
	default:
		return batchTagIDs
	}
}

// BatchReplyMsg answers a BatchQueryMsg: Items[i] answers Queries[i].
//
//	uvarint id | u64 epoch | uvarint count | items
type BatchReplyMsg struct {
	ID uint32
	// Epoch is the index-state fingerprint at answer time (see
	// IDListMsg.Epoch); 0 = no epoch information.
	Epoch uint64
	Items []BatchItem
}

// Type implements Message.
func (m *BatchReplyMsg) Type() MsgType { return MsgBatchReply }

// RequestID implements Message.
func (m *BatchReplyMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *BatchReplyMsg) Validate() error {
	if len(m.Items) == 0 {
		return fmt.Errorf("proto: empty batch reply")
	}
	if len(m.Items) > MaxBatchQueries {
		return fmt.Errorf("proto: batch reply of %d items exceeds %d", len(m.Items), MaxBatchQueries)
	}
	for i := range m.Items {
		it := &m.Items[i]
		shapes := 0
		for _, n := range [...]int{len(it.IDs), len(it.Recs), len(it.Nbrs)} {
			if n > 0 {
				shapes++
			}
		}
		if shapes > 1 {
			return fmt.Errorf("proto: batch item %d has more than one result shape", i)
		}
		if it.Err != 0 && shapes > 0 {
			return fmt.Errorf("proto: batch item %d has both an error and results", i)
		}
		if len(it.Text) > MaxErrorText {
			return fmt.Errorf("proto: batch item %d error text %d bytes exceeds %d", i, len(it.Text), MaxErrorText)
		}
		if it.Err == 0 && it.Text != "" {
			return fmt.Errorf("proto: batch item %d has error text without a code", i)
		}
		if err := validateRecords("batch item", it.Recs); err != nil {
			return err
		}
		if err := validateNeighbors("batch item", it.Nbrs); err != nil {
			return err
		}
	}
	return nil
}

func (m *BatchReplyMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = binaryAppendU64(b, m.Epoch)
	b = appendUvarint(b, uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		t := it.tag()
		b = append(b, t)
		switch t {
		case batchTagErr:
			b = appendU16(b, uint16(it.Err))
			b = appendU16(b, uint16(len(it.Text)))
			b = append(b, it.Text...)
		case batchTagRecs:
			b = appendRecords(b, it.Recs)
		case batchTagNbrs:
			b = appendNeighbors(b, it.Nbrs)
		default:
			b = appendIDs(b, it.IDs)
		}
	}
	return b
}

func (m *BatchReplyMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.Epoch = d.u64()
	n := d.uv32()
	if n > MaxBatchQueries {
		return fmt.Errorf("proto: batch reply count %d exceeds %d", n, MaxBatchQueries)
	}
	items := m.Items[:0]
	for i := 0; i < int(n) && d.err == nil; i++ {
		if cap(items) > i {
			items = items[:i+1]
		} else {
			items = append(items, BatchItem{})
		}
		it := &items[i]
		it.IDs = it.IDs[:0]
		it.Recs = it.Recs[:0]
		it.Nbrs = it.Nbrs[:0]
		it.Err = 0
		it.Text = ""
		switch tag := d.u8(); tag {
		case batchTagErr:
			it.Err = ErrCode(d.u16())
			tn := int(d.u16())
			it.Text = string(d.bytes(tn))
			if d.err == nil && it.Err == 0 {
				return fmt.Errorf("proto: batch item %d error with zero code", i)
			}
		case batchTagRecs:
			it.Recs = d.appendRecords(it.Recs)
		case batchTagNbrs:
			it.Nbrs = d.appendNeighborsN(it.Nbrs, int(d.u32()))
		case batchTagIDs:
			it.IDs = d.appendIDs(it.IDs)
		default:
			return fmt.Errorf("proto: batch item %d has unknown tag %d", i, tag)
		}
	}
	m.Items = items
	return d.finish("batch-reply")
}
