// pool.go: sync.Pool-backed reuse for the wire hot path. The paper's point
// is that avoidable work on the query path costs energy and latency; on the
// Go side the avoidable work is per-message garbage — frame encode buffers,
// decode payload buffers, and decoded message structs. Pooling them makes a
// warm encode/decode cycle allocation-free.
//
// Ownership discipline:
//
//   - ReadMessage returns a pooled message. The receiver that finishes with
//     it calls ReleaseMessage; a receiver that hands the message's slices to
//     someone else (the client returns reply IDs/Records to its caller)
//     simply never releases it — an unreleased message is ordinary garbage
//     with unchanged semantics.
//   - A released message, and everything it points into, must not be touched
//     again: its slices will be overwritten by a future decode.
//   - Acquire*/ReleaseMessage are optional everywhere. Code that allocates
//     messages with plain literals keeps working; it just pays the
//     allocation.
package proto

import "sync"

// Retention caps: a pooled object that grew past these is dropped instead of
// pooled, so one huge shipment or ping does not pin memory forever.
const (
	maxPooledBuf     = 1 << 20
	maxPooledIDs     = 64 << 10
	maxPooledRecords = 16 << 10
)

// bufPool holds frame encode buffers and frame decode payload buffers.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(pb *[]byte) {
	if cap(*pb) > maxPooledBuf {
		return
	}
	*pb = (*pb)[:0]
	bufPool.Put(pb)
}

// Per-type message pools. Only the types that appear on the hot query path
// are pooled; shipments, errors, and stats frames are cold and stay
// plainly allocated.
var (
	queryPool      = sync.Pool{New: func() any { return new(QueryMsg) }}
	idListPool     = sync.Pool{New: func() any { return new(IDListMsg) }}
	dataListPool   = sync.Pool{New: func() any { return new(DataListMsg) }}
	pingPool       = sync.Pool{New: func() any { return new(PingMsg) }}
	shipReqPool    = sync.Pool{New: func() any { return new(ShipmentReqMsg) }}
	batchQueryPool = sync.Pool{New: func() any { return new(BatchQueryMsg) }}
	batchReplyPool = sync.Pool{New: func() any { return new(BatchReplyMsg) }}
	deletePool     = sync.Pool{New: func() any { return new(DeleteMsg) }}
	movePool       = sync.Pool{New: func() any { return new(MoveMsg) }}
	updateAckPool  = sync.Pool{New: func() any { return new(UpdateAckMsg) }}
)

// AcquireQuery returns a zeroed *QueryMsg from the pool. Pass it to a
// release-aware consumer (the client's query path releases the request after
// the round trip) or call ReleaseMessage yourself.
func AcquireQuery() *QueryMsg { return queryPool.Get().(*QueryMsg) }

// AcquireBatchQuery returns a *BatchQueryMsg from the pool with zero scalar
// fields and an empty (capacity-preserving) Queries slice.
func AcquireBatchQuery() *BatchQueryMsg { return batchQueryPool.Get().(*BatchQueryMsg) }

// AcquireDelete returns a zeroed *DeleteMsg from the pool.
func AcquireDelete() *DeleteMsg { return deletePool.Get().(*DeleteMsg) }

// AcquireMove returns a zeroed *MoveMsg from the pool — the hottest update
// type under the moving-object workload.
func AcquireMove() *MoveMsg { return movePool.Get().(*MoveMsg) }

// ReleaseMessage returns m to its type's pool, keeping slice capacity for
// reuse. Releasing an unpooled type is a no-op. The caller must not touch m —
// or any slice it handed out from m — afterwards.
func ReleaseMessage(m Message) {
	switch v := m.(type) {
	case *QueryMsg:
		*v = QueryMsg{}
		queryPool.Put(v)
	case *IDListMsg:
		if cap(v.IDs) > maxPooledIDs {
			return
		}
		v.ID = 0
		v.Epoch = 0
		v.IDs = v.IDs[:0]
		idListPool.Put(v)
	case *DataListMsg:
		if cap(v.Records) > maxPooledRecords {
			return
		}
		v.ID = 0
		v.Epoch = 0
		v.Records = v.Records[:0]
		dataListPool.Put(v)
	case *PingMsg:
		if cap(v.Payload) > maxPooledBuf {
			return
		}
		v.ID = 0
		v.Payload = v.Payload[:0]
		pingPool.Put(v)
	case *ShipmentReqMsg:
		*v = ShipmentReqMsg{}
		shipReqPool.Put(v)
	case *BatchQueryMsg:
		v.ID = 0
		v.TimeoutMicros = 0
		v.WantEpoch = false
		v.Queries = v.Queries[:0]
		batchQueryPool.Put(v)
	case *DeleteMsg:
		*v = DeleteMsg{}
		deletePool.Put(v)
	case *MoveMsg:
		*v = MoveMsg{}
		movePool.Put(v)
	case *UpdateAckMsg:
		*v = UpdateAckMsg{}
		updateAckPool.Put(v)
	case *BatchReplyMsg:
		// Trim the full capacity region: items beyond len keep reusable
		// slices from earlier decodes.
		if !trimBatchItems(v.Items[:cap(v.Items)]) {
			return
		}
		v.ID = 0
		v.Epoch = 0
		v.Items = v.Items[:0]
		batchReplyPool.Put(v)
	}
}

// trimBatchItems resets the per-item slices for reuse; false means some item
// grew past the retention cap and the whole reply should be dropped.
func trimBatchItems(items []BatchItem) bool {
	for i := range items {
		it := &items[i]
		if cap(it.IDs) > maxPooledIDs || cap(it.Recs) > maxPooledRecords {
			return false
		}
		it.IDs = it.IDs[:0]
		it.Recs = it.Recs[:0]
		it.Err = 0
		it.Text = ""
	}
	return true
}
