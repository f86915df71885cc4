package core

import (
	"fmt"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
)

// Update handling — the paper's §7 future-work item "examining issues when
// data is frequently modified (and the latest copy needs to be obtained
// from server)". The road-atlas geometry is static (streets do not move
// between queries), but record *attributes* change: closures, speed limits,
// names. The server keeps an update log; a client holding an
// insufficient-memory shipment revalidates it with a cheap delta exchange —
// "which of my records changed since epoch E?" — and patches the changed
// records, instead of re-downloading the shipment.
//
// The revalidation frequency is a lease: the client trusts its copy for
// LeaseQueries local queries before asking again. A longer lease saves
// energy and widens the staleness window — one more energy/consistency
// trade-off in the spirit of the paper's energy/performance ones.

// UpdateLog is the server-side modification history: for every record, the
// epoch of its last change.
type UpdateLog struct {
	epoch     int64
	updatedAt map[uint32]int64
}

// NewUpdateLog returns an empty log at epoch 0.
func NewUpdateLog() *UpdateLog {
	return &UpdateLog{updatedAt: make(map[uint32]int64)}
}

// Epoch returns the current server epoch.
func (l *UpdateLog) Epoch() int64 { return l.epoch }

// Apply records one batch of attribute updates and advances the epoch.
func (l *UpdateLog) Apply(ids []uint32) {
	l.epoch++
	for _, id := range ids {
		l.updatedAt[id] = l.epoch
	}
}

// UpdatedSince returns the ids changed after epoch whose record satisfies
// keep (used to restrict the delta to the client's coverage).
func (l *UpdateLog) UpdatedSince(epoch int64, keep func(uint32) bool) []uint32 {
	var out []uint32
	for id, at := range l.updatedAt {
		if at > epoch && (keep == nil || keep(id)) {
			out = append(out, id)
		}
	}
	return out
}

// ValidationRequestBytes is the payload of a revalidation request: the
// cached epoch plus the coverage rectangle.
const ValidationRequestBytes = 48

// RunInsufficientClientValidated behaves like RunInsufficientClient but
// keeps the cached records consistent with the engine's update log: before
// a local answer is served with an expired lease, the client exchanges a
// delta with the server and patches the changed records. leaseQueries is
// the number of local answers served between revalidations (0 validates
// every time). It returns the answer, whether the query was answered from
// the (revalidated) cache, and the number of records patched.
func (e *Engine) RunInsufficientClientValidated(q Query, cache *Cache, log *UpdateLog, leaseQueries int) (Answer, bool, int, error) {
	if log == nil {
		return Answer{}, false, 0, fmt.Errorf("core: nil update log")
	}
	patched := 0
	if cache != nil && cache.Holds(q) && cache.sinceValidation >= int64(leaseQueries) {
		patched = e.revalidate(cache, log)
		cache.sinceValidation = 0
	}
	ans, local, err := e.RunInsufficientClient(q, cache)
	if err != nil {
		return ans, local, patched, err
	}
	if local {
		cache.sinceValidation++
		if log.Epoch() > cache.epoch {
			cache.StaleServed++
		}
	} else {
		// A fresh shipment is current by construction.
		cache.epoch = log.Epoch()
		cache.sinceValidation = 0
	}
	return ans, local, patched, nil
}

// revalidate runs the delta exchange and returns the number of patched
// records.
func (e *Engine) revalidate(cache *Cache, log *UpdateLog) int {
	cache.Revalidations++
	coverage := cache.ship.Coverage
	e.Sys.ClientCompute(func(rec ops.Recorder) { rec.Op(ops.OpDispatch, 1) })
	e.Sys.Send(ValidationRequestBytes)

	var changed []uint32
	e.Sys.ServerCompute(func(rec ops.Recorder) {
		rec.Op(ops.OpDispatch, 1)
		// Scan the log (one probe per logged update) and filter to the
		// client's coverage.
		changed = log.UpdatedSince(cache.epoch, func(id uint32) bool {
			rec.Op(ops.OpMBRTest, 1)
			rec.Load(e.DS.RecordAddr(id), 16)
			return e.DS.Seg(id).IntersectsRect(coverage)
		})
		rec.Op(ops.OpCopyWord, len(changed)*e.DS.RecordBytes/4)
	})
	// The reply carries the fresh records for the changed ids.
	e.Sys.Receive(DataListBytes(len(changed), e.DS.RecordBytes))
	// Patch them into the local copy.
	e.Sys.ClientCompute(func(rec ops.Recorder) {
		for _, id := range changed {
			rec.Op(ops.OpCopyWord, e.DS.RecordBytes/4)
			rec.Store(e.DS.RecordAddr(id), e.DS.RecordBytes)
		}
	})
	cache.epoch = log.Epoch()
	return len(changed)
}

// RandomUpdates picks n record ids inside a region to modify (a convenience
// for tests and the staleness experiment). The ids come from the master
// index so the update stream has spatial locality, like real road-network
// maintenance.
func (e *Engine) RandomUpdates(region geom.Rect, n int) []uint32 {
	if e.Master == nil {
		return nil
	}
	ids := e.Master.AppendRange(nil, nil, region, false, nil)
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
