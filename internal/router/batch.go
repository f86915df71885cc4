// batch.go is the serve.BatchExecutor surface: a client batch
// (MsgBatchQuery) fans out as ONE wire leg per owning backend instead of one
// full fan-out per sub-query. The per-item path costs legs × sub-queries — a
// 32-query batch over a 4-backend cluster pays up to 128 round trips even
// when every sub-query's ranges live on one backend. Here the whole batch is
// planned against one routing snapshot by the same route() a single query
// takes (exec.go): a sub-query whose ranges span several backends takes one
// slot in each owning leg, a k-NN sub-query's first leg is a slot too, a dead
// leg's ranges are re-covered from their replicas in the next round of the
// same call, and only a sub-query with a range no healthy backend holds
// carries an error in its item.
package router

import (
	"time"

	"mobispatial/internal/proto"
)

// RunQueryBatch implements serve.BatchExecutor: items[i] answers qs[i] by
// its mode — records, merged by id from the ones the backends' walks
// matched (a k-NN nearest first), for a ModeData or ModeCandidates
// sub-query, ids otherwise. Slots arriving with Err pre-set were rejected
// by the server and are skipped.
func (r *Router) RunQueryBatch(qs []proto.QueryMsg, items []proto.BatchItem, deadline time.Time) {
	r.metrics.batches.Inc()
	r.metrics.batchQueries.Add(uint64(len(qs)))
	sc := r.getScratch()
	defer r.putScratch(sc)
	nLegs := r.route(sc, qs, items, r.deadlineOr(deadline), sendBatch)
	r.metrics.batchLegs.Add(uint64(nLegs))
}
