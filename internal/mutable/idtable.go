package mutable

import (
	"sync"
	"sync/atomic"
)

// idTable is the only per-id bookkeeping a Pool keeps: which shard owns each
// live id, and whether an id has ever been written.
//
// Dataset ids, [0, n), index two flat arrays of atomics, so resolving one is
// a load — no lock, no hash. Inserted ids (>= n) are few and arbitrary (a
// client picks them), so their owners live in a striped side map whose size
// follows the LIVE inserted ids, never the largest id seen; they always read
// as written.
//
// The written bit is monotone: a write sets it under its shard's writer
// lock before it changes any overlay (upsert, remove), and nothing clears
// it. Hence the invariant every read path leans on, stated here once
// and checked by TestWrittenBitInvariant:
//
//	no overlay (segs), tombstone set, frozen layer or base `over` map of
//	any shard names an id whose written bit is clear.
//
// So a never-written id has exactly one geometry, the base dataset's, and is
// masked by nothing: maskBase clears it on the bit alone, and SegOf and
// locate, the only per-id look-ups, answer it from Dataset.Seg. A scan or a
// k-NN walk looks up no id's geometry: each layer answers from its leaves or
// entries. A workload that eventually writes every id degrades to the
// per-layer map look-ups, never below them.
//
// Owners change only under Pool.omu (a write's ownership decision); reads
// take no pool-wide lock.
type idTable struct {
	owners []atomic.Pointer[mshard] // dataset id -> owning shard, nil when not held
	// wbits is the written bitmap over dataset ids. The last word's bits
	// past n are pre-set, so written() needs no separate bound check.
	wbits []atomic.Uint32
	side  [sideStripes]sideStripe
}

// sideStripes spreads the inserted ids' owner map over independent locks; a
// read of an inserted id shares its stripe's read lock, never a pool-wide one.
const sideStripes = 16

type sideStripe struct {
	mu sync.RWMutex
	m  map[uint32]*mshard
}

func newIDTable(n int) *idTable {
	t := &idTable{
		owners: make([]atomic.Pointer[mshard], n),
		wbits:  make([]atomic.Uint32, (n+31)/32),
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

// owner returns the shard owning id, or nil when the pool does not hold it.
func (t *idTable) owner(id uint32) *mshard {
	if int(id) < len(t.owners) {
		return t.owners[id].Load()
	}
	st := &t.side[id%sideStripes]
	st.mu.RLock()
	s := st.m[id]
	st.mu.RUnlock()
	return s
}

// setOwner records s as id's owner; nil forgets the id. Caller holds omu.
func (t *idTable) setOwner(id uint32, s *mshard) {
	if int(id) < len(t.owners) {
		t.owners[id].Store(s)
		return
	}
	st := &t.side[id%sideStripes]
	st.mu.Lock()
	switch {
	case s != nil && st.m == nil:
		st.m = map[uint32]*mshard{id: s}
	case s != nil:
		st.m[id] = s
	default:
		// A Go map never shrinks; dropping the emptied one is what keeps
		// the stripe's memory following the live ids.
		if delete(st.m, id); len(st.m) == 0 {
			st.m = nil
		}
	}
	st.mu.Unlock()
}
