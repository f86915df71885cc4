// update.go: the client write path — live inserts, deletes, and moves
// against an updatable server. Updates ride the same single-exchange
// machinery as queries (pooled request messages, breaker, bounded retries);
// retrying a write is safe because the server's update semantics are
// idempotent upserts/deletes, and the ack carries the owning shard's base
// epoch so a caller can measure how far behind the packed base its write
// landed.
package client

import (
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// UpdateAck is one acknowledged write: the owning shard's base epoch at
// apply time (the write folds into the packed base at Epoch+1 or later),
// whether a previous version of the object was visible, and whether the
// answering server owns the object's position (false when a replicated
// write merely cleared a stale copy on a non-owning server).
type UpdateAck struct {
	Epoch   uint64
	Existed bool
	Owned   bool
}

// Insert upserts object id at seg.
func (c *Client) Insert(id uint32, seg geom.Segment) (UpdateAck, error) {
	m := proto.AcquireInsert()
	m.ObjID, m.Seg = id, seg
	return c.update(m)
}

// Delete removes object id wherever it lives; deleting an unknown id
// succeeds with Existed=false.
func (c *Client) Delete(id uint32) (UpdateAck, error) {
	m := proto.AcquireDelete()
	m.ObjID = id
	return c.update(m)
}

// Move updates object id's geometry to seg — the moving-object workload's
// hot write.
func (c *Client) Move(id uint32, seg geom.Segment) (UpdateAck, error) {
	m := proto.AcquireMove()
	m.ObjID, m.Seg = id, seg
	return c.update(m)
}

// update sends one write and copies its ack out of the pooled reply. A
// write counts as one logical query in the wire statistics. An acked write
// is an observed write: the ack carries no epoch hint and the next reply
// that does may be a long way off, so the installed shipment is retired here.
func (c *Client) update(m proto.Request) (UpdateAck, error) {
	r, err := call[*proto.UpdateAckMsg](c, m, time.Time{}, 1, nil)
	if err != nil {
		return UpdateAck{}, err
	}
	c.writes.Add(1)
	c.retire()
	ack := UpdateAck{Epoch: r.Epoch, Existed: r.Existed, Owned: r.Owned}
	proto.ReleaseMessage(r)
	return ack, nil
}
