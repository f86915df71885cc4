// write.go is the router's write path: live inserts, deletes, and moves
// fanned to every replica that must observe them. Reads pick ONE healthy
// holder per range; writes are the dual — they go to ALL holders of the
// owning range (an insert routed by the object's Hilbert key) or to every
// backend outright (moves and deletes, which must also evict stale copies
// from backends the object is leaving). Replication is synchronous and
// best-effort: the write succeeds if at least one replica applied it, and a
// replica that missed it (tripped breaker, timeout) is counted as
// divergence — the copies disagree until that backend is rebuilt or the
// object is written again.
//
// The merged ack is the most conservative view across replicas: Epoch is the
// MINIMUM base epoch among owning replicas (the most-behind copy — staleness
// measured against it never understates), Existed is true if any replica had
// a previous version, Owned is true if any replica accepted ownership.
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

// ApplyInsert routes an upsert to every holder of the owning range. Insert
// is the fresh-object path: it does not hunt down copies of id elsewhere in
// the cluster — relocating a live object is Move's job. On success the
// write enters the freshness plane (noteWrite) before the ack returns, so
// a read issued after the ack routes to the object even if it landed
// outside the range's summary MBR.
func (r *Router) ApplyInsert(id uint32, seg geom.Segment) (uint64, bool, bool, error) {
	t := r.snap()
	mbr := seg.MBR()
	rg := t.rangeForKey(shard.WriteKey(r.wq, mbr))
	epoch, existed, owned, err := r.fanWrite(t.holders[rg], writeOp{proto.MsgInsert, id, seg})
	if err == nil {
		r.liveSet(id, seg)
		r.noteWrite(mbr, rg, rg)
	}
	return epoch, existed, owned, err
}

// ApplyMove broadcasts the relocation to every backend: holders of the
// target range upsert the new geometry, every other backend drops any stale
// copy it still holds (acking Owned=false), so a vehicle crossing a range
// boundary never answers queries from two places. Both the old and the new
// position's ranges invalidate: a cached result over the old position must
// stop reporting the object there. The old position comes from the router's
// live map (or the base dataset); an id neither knows moved through some
// other door, so every range is invalidated rather than guess.
func (r *Router) ApplyMove(id uint32, seg geom.Segment) (uint64, bool, bool, error) {
	t := r.snap()
	mbr := seg.MBR()
	newRg := t.rangeForKey(shard.WriteKey(r.wq, mbr))
	oldRg := -1
	if oldSeg, ok := r.segKnown(id); ok {
		oldRg = t.rangeForKey(shard.WriteKey(r.wq, oldSeg.MBR()))
	}
	epoch, existed, owned, err := r.fanWrite(r.all, writeOp{proto.MsgMove, id, seg})
	if err == nil {
		r.liveSet(id, seg)
		if oldRg >= 0 {
			r.noteWrite(mbr, newRg, newRg, oldRg)
		} else {
			r.noteWrite(mbr, newRg)
			r.bumpAllRanges()
		}
	}
	return epoch, existed, owned, err
}

// ApplyDelete broadcasts the delete: only the backend holding id knows it,
// and the router does not track where id lives, so everyone is told.
// Deleting an id nobody holds succeeds with Existed=false. The range of the
// object's last known position invalidates (the object must vanish from
// cached results there); no growth is added — a delete never widens extent.
func (r *Router) ApplyDelete(id uint32) (uint64, bool, bool, error) {
	t := r.snap()
	oldRg := -1
	if oldSeg, ok := r.segKnown(id); ok {
		oldRg = t.rangeForKey(shard.WriteKey(r.wq, oldSeg.MBR()))
	}
	epoch, existed, owned, err := r.fanWrite(r.all, writeOp{kind: proto.MsgDelete, id: id})
	if err == nil {
		r.liveMu.Lock()
		delete(r.live, id)
		r.liveMu.Unlock()
		if existed {
			if oldRg >= 0 {
				r.noteWrite(geom.EmptyRect(), -1, oldRg)
			} else {
				r.bumpAllRanges()
			}
		}
	}
	return epoch, existed, owned, err
}

// SegOf is the geometry half of serve.Updatable: live-written geometry wins over the
// base dataset; an unknown id beyond the dataset resolves to the zero
// segment rather than a panic.
func (r *Router) SegOf(id uint32) geom.Segment {
	seg, _ := r.segKnown(id)
	return seg
}

// segKnown resolves id's last geometry this router can vouch for, and
// whether it could: live-written geometry wins over the base dataset; an
// id beyond both is unknown (ok=false), which write invalidation treats as
// "could be anywhere".
func (r *Router) segKnown(id uint32) (geom.Segment, bool) {
	r.liveMu.RLock()
	seg, ok := r.live[id]
	r.liveMu.RUnlock()
	if ok {
		return seg, true
	}
	if int(id) < r.ds.Len() {
		return r.ds.Seg(id), true
	}
	return geom.Segment{}, false
}

func (r *Router) liveSet(id uint32, seg geom.Segment) {
	r.liveMu.Lock()
	r.live[id] = seg
	r.liveMu.Unlock()
}

// writeOp is the write every leg of one fanWrite carries: MsgInsert,
// MsgMove or MsgDelete of object id (seg is unused by a delete).
type writeOp struct {
	kind proto.MsgType
	id   uint32
	seg  geom.Segment
}

// shipWrite is fanWrite's leg function: the call's write to backend
// sc.sel[li], its ack into sc.acks[li].
func shipWrite(r *Router, sc *fanScratch, li int) error {
	cc, w := r.clients[sc.sel[li]], &sc.write
	var err error
	switch w.kind {
	case proto.MsgInsert:
		sc.acks[li], err = cc.Insert(w.id, w.seg)
	case proto.MsgMove:
		sc.acks[li], err = cc.Move(w.id, w.seg)
	default:
		sc.acks[li], err = cc.Delete(w.id)
	}
	r.metrics.writeLegs.Inc()
	if err != nil {
		r.metrics.writeLegErrs.Inc()
	}
	return err
}

// fanWrite sends w to every target concurrently through the leg runner the
// reads use and merges the acks. Unlike reads there is no failover — the
// targets ARE the replica set; a failed leg has nowhere else to go and is
// recorded as divergence instead.
func (r *Router) fanWrite(targets []int32, w writeOp) (uint64, bool, bool, error) {
	r.metrics.writes.Inc()
	sc := r.getScratch()
	defer r.putScratch(sc)
	sc.sel = append(sc.sel[:0], targets...)
	sc.acks = append(sc.acks[:0], make([]client.UpdateAck, len(targets))...)
	sc.write = w
	r.runLegs(sc, shipWrite)

	ok := 0
	var epoch uint64
	existed, owned := false, false
	var lastErr error
	for i := range targets {
		if sc.errs[i] != nil {
			lastErr = sc.errs[i]
			continue
		}
		ok++
		a := sc.acks[i]
		existed = existed || a.Existed
		if a.Owned {
			if !owned || a.Epoch < epoch {
				epoch = a.Epoch
			}
			owned = true
		}
	}
	if ok == 0 {
		r.metrics.writeUnroutable.Inc()
		return 0, false, false, &routerError{
			code: proto.CodeUnavailable,
			msg:  fmt.Sprintf("router: write reached none of %d replicas: %v", len(targets), lastErr),
		}
	}
	if ok < len(targets) {
		r.metrics.writeDivergence.Inc()
	}
	return epoch, existed, owned, nil
}
