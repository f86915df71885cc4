// write.go is the router's write path, and it has one rule: every write goes
// to every backend, and what the backends answer decides both the ack and
// what the write invalidates. The router keeps no memory of where an object
// is — it could not keep one right, because objects also move through other
// routers and directly at backends — so it asks everyone, as a read of the
// object's whereabouts and its write in one round.
//
//   - A move (the one upsert) is applied by the holders of its target
//     range, the range its Hilbert key falls in; every other backend evicts
//     any copy it has and acks Owned=false. It is acked only when a holder of
//     the target range reports Owned.
//   - A delete is applied wherever the object is. It is acked only when some
//     backend reports the object Existed, or when every backend answered (the
//     object was nowhere).
//
// Otherwise the write fails CodeUnavailable. Replication is synchronous and
// there is no failover: a leg that failed (tripped breaker, timeout) has
// nowhere else to go, so when other legs applied the write it is counted as
// divergence — the copies disagree until that backend is rebuilt or the
// object is written again.
//
// A write invalidates, in the snapshot the call routed by, its target range
// and every range held by a backend that reported a prior copy or could not
// be reached: together they cover wherever the object was before.
//
// The merged ack is the most conservative view across backends: Epoch is the
// MINIMUM base epoch among owning replicas (the most-behind copy — staleness
// measured against it never understates), Existed is true if any backend had
// a previous version, Owned is true if any backend accepted ownership.
package router

import (
	"fmt"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// Router implements serve.Updatable, so cmd/mqrouter's serve.Server accepts
// update messages and resolves live geometry in data-mode responses without
// any extra wiring.

// ApplyMove upserts id at seg through write: an object's first position
// and every later one. On success the write enters the freshness plane
// (noteWrite) before the ack returns, so a read issued after the ack routes
// to the object even if it landed outside the range's summary MBR.
func (r *Router) ApplyMove(id uint32, seg geom.Segment) (uint64, bool, bool, error) {
	return r.write(writeOp{id: id, seg: seg})
}

// ApplyDelete deletes id wherever it is. Deleting an id nobody holds
// succeeds with Existed=false once every backend has said so.
func (r *Router) ApplyDelete(id uint32) (uint64, bool, bool, error) {
	return r.write(writeOp{del: true, id: id})
}

// SegOf is the geometry half of serve.Updatable: the geometry of the last
// write this router acked for id wins over the base dataset; an unknown id
// beyond the dataset resolves to the zero segment rather than a panic.
func (r *Router) SegOf(id uint32) geom.Segment {
	r.liveMu.RLock()
	seg, ok := r.live[id]
	r.liveMu.RUnlock()
	if !ok && int(id) < r.ds.Len() {
		seg = r.ds.Seg(id)
	}
	return seg
}

// writeOp is the write every leg of one write call carries: a move of
// object id to seg, or with del set a delete of id (seg unused).
type writeOp struct {
	del bool
	id  uint32
	seg geom.Segment
}

// shipWrite is write's leg function: the call's write to backend
// sc.sel[li], its ack into sc.acks[li].
func shipWrite(r *Router, sc *fanScratch, li int) error {
	cc, w := r.clients[sc.sel[li]], &sc.write
	var err error
	if w.del {
		sc.acks[li], err = cc.Delete(w.id)
	} else {
		sc.acks[li], err = cc.Move(w.id, w.seg)
	}
	r.metrics.writeLegs.Inc()
	if err != nil {
		r.metrics.writeLegErrs.Inc()
	}
	return err
}

// write sends w to every backend concurrently through the leg runner the
// reads use, publishes what it invalidates, and acks it by the rule in the
// package comment.
func (r *Router) write(w writeOp) (uint64, bool, bool, error) {
	r.metrics.writes.Inc()
	t := r.snap()
	target := -1 // a delete has no target range
	if !w.del {
		target = t.rangeForKey(shard.WriteKey(r.wq, w.seg.MBR()))
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	sc.sel = append(sc.sel[:0], r.all...)
	sc.acks = append(sc.acks[:0], make([]client.UpdateAck, len(r.all))...)
	sc.write = w
	r.runLegs(sc, shipWrite)

	bump := make([]bool, t.numRanges)
	if target >= 0 {
		bump[target] = true
	}
	var epoch uint64
	existed, owned, applied := false, false, false
	answered := 0
	var lastErr error
	for li, b := range sc.sel {
		a, err := sc.acks[li], sc.errs[li]
		if err != nil {
			lastErr = err
		} else {
			answered++
			existed = existed || a.Existed
			if a.Owned {
				if !owned || a.Epoch < epoch {
					epoch = a.Epoch
				}
				owned = true
				applied = applied || target >= 0 && t.holds[b][target]
			}
		}
		if err != nil || a.Existed {
			for rg, held := range t.holds[b] {
				bump[rg] = bump[rg] || held
			}
		}
	}
	if answered > 0 && answered < len(sc.sel) {
		r.metrics.writeDivergence.Inc()
	}
	r.noteWrite(w.seg.MBR(), target, bump)

	acked := applied
	if target < 0 {
		acked = existed || answered == len(sc.sel)
	}
	if !acked {
		r.metrics.writeUnroutable.Inc()
		verb, why := "move", fmt.Sprintf("no holder of range %d applied it", target)
		if w.del {
			verb, why = "delete", "none reported the object and the rest did not answer"
		}
		return 0, false, false, &routerError{
			code: proto.CodeUnavailable,
			msg: fmt.Sprintf("router: %s of id %d: %d of %d backends answered, %s: %v",
				verb, w.id, answered, len(sc.sel), why, lastErr),
		}
	}
	r.liveMu.Lock()
	if target < 0 {
		delete(r.live, w.id)
	} else {
		r.live[w.id] = w.seg
	}
	r.liveMu.Unlock()
	return epoch, existed, owned, nil
}
