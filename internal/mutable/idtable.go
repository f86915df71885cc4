package mutable

import (
	"sync"
	"sync/atomic"

	"mobispatial/internal/rtree"
)

// idTable is the only per-id bookkeeping a Pool keeps: which shard owns each
// live id and where that shard's base packs it, and whether an id has ever
// been written.
//
// An id's slot is one word: its owner's index + 1 in the high half (0 when
// the pool does not hold it) and the id's position in the owner's base
// PackOrder in the low half. One rule answers every per-id look-up: a
// base-resident id is read from its owner's leaves at its slot
// (baseView.find), whether it was ever written or not. New stamps the
// positions from the trees it builds, and a compaction's swap restamps,
// under the shard's writer lock, every id its new base packs that the shard
// still owns (stamp). A leaf holding another id means "not here" — a base
// read before its stamp, or an id whose copy sits in an overlay — and the
// look-up retries under the owner's lock (locate), where base and stamps
// agree. Owners leave a shard only under its writer lock, so a stamp never
// races an owner change.
//
// Ids below the table's size — the largest id New packed, + 1 — index two
// flat arrays of atomics, so resolving one is a load — no lock, no hash.
// Inserted ids (above it) are few and arbitrary (a client picks them), so
// their slots live in a striped side map whose size follows the LIVE
// inserted ids, never the largest id seen; they always read as written.
//
// The written bit is monotone: a write sets it under its shard's writer
// lock before it changes any overlay (upsert, remove), and nothing clears
// it. Hence the invariant maskBase leans on, stated here once and checked
// by TestWrittenBitInvariant:
//
//	no overlay (segs), tombstone set or frozen layer of any shard names an
//	id whose written bit is clear.
//
// So a never-written id is masked by nothing, and maskBase clears it on the
// bit alone; a workload that eventually writes every id degrades it to the
// per-layer map look-ups, never below them. A scan or a k-NN walk looks up
// no id's geometry: each layer answers from its leaves or entries.
//
// Owners change only under Pool.omu (a write's ownership decision); reads
// take no pool-wide lock.
type idTable struct {
	slots []atomic.Uint64 // id -> slot word
	// wbits is the written bitmap over the dense ids. The last word's bits
	// past the table's size are pre-set, so written() needs no separate
	// bound check.
	wbits []atomic.Uint32
	side  [sideStripes]sideStripe
	// shards indexes the owners by a slot's high half: nil at 0, the
	// pool's shard i at i+1.
	shards []*mshard
}

// sideStripes spreads the inserted ids' slot map over independent locks; a
// read of an inserted id shares its stripe's read lock, never a pool-wide one.
const sideStripes = 16

type sideStripe struct {
	mu sync.RWMutex
	m  map[uint32]uint64
}

func newIDTable(n int) *idTable {
	t := &idTable{
		slots: make([]atomic.Uint64, n),
		wbits: make([]atomic.Uint32, (n+31)/32),
	}
	if r := uint(n) % 32; r != 0 {
		t.wbits[len(t.wbits)-1].Store(^uint32(0) << r)
	}
	return t
}

// written reports whether id has ever been written; always true for an
// inserted id.
func (t *idTable) written(id uint32) bool {
	w := int(id >> 5)
	return w >= len(t.wbits) || t.wbits[w].Load()&(1<<(id&31)) != 0
}

// markWritten sets id's written bit. Go 1.22 has no atomic Or, hence the CAS
// loop; the moving-object hot write finds the bit set and only loads.
func (t *idTable) markWritten(id uint32) {
	w := int(id >> 5)
	if w >= len(t.wbits) {
		return
	}
	bit := uint32(1) << (id & 31)
	for {
		old := t.wbits[w].Load()
		if old&bit != 0 || t.wbits[w].CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// word returns id's slot word, 0 when the pool does not hold it.
func (t *idTable) word(id uint32) uint64 {
	if int(id) < len(t.slots) {
		return t.slots[id].Load()
	}
	st := &t.side[id%sideStripes]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.m[id]
}

// owner returns the shard owning id, or nil when the pool does not hold it.
func (t *idTable) owner(id uint32) *mshard { return t.shards[t.word(id)>>32] }

// setOwner records s as id's owner, whose copy lands in s's overlay, not at
// a position of its base; nil forgets the id. Caller holds omu and the
// writer locks of the shards the id leaves and enters.
func (t *idTable) setOwner(id uint32, s *mshard) { t.set(id, s, 0) }

// stamp records where base leaves (a PackOrder) of shard s packs each id s
// owns. Caller holds s.mu, so whether s owns an id cannot change under it.
func (t *idTable) stamp(s *mshard, leaves []rtree.Item) {
	for pos, it := range leaves {
		if t.owner(it.ID) == s {
			t.set(it.ID, s, pos)
		}
	}
}

// set stores id's slot: owner s (nil forgets the id) at position pos.
func (t *idTable) set(id uint32, s *mshard, pos int) {
	var w uint64
	if s != nil {
		w = uint64(s.idx+1)<<32 | uint64(pos)
	}
	if int(id) < len(t.slots) {
		t.slots[id].Store(w)
		return
	}
	st := &t.side[id%sideStripes]
	st.mu.Lock()
	switch {
	case w != 0 && st.m == nil:
		st.m = map[uint32]uint64{id: w}
	case w != 0:
		st.m[id] = w
	default:
		// A Go map never shrinks; dropping the emptied one is what keeps
		// the stripe's memory following the live ids.
		if delete(st.m, id); len(st.m) == 0 {
			st.m = nil
		}
	}
	st.mu.Unlock()
}
