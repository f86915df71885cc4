package shard

import "mobispatial/internal/obs"

// metrics holds the obs handles the query paths touch, resolved once at New
// so the hot path never reaches into the registry maps. Every handle is nil
// (no-op) when Config.Obs is nil — the same discipline as internal/serve.
//
// Exported metric names:
//
//	shard_count                    gauge: shards in the pool
//	shard_fanout                   histogram: participating shards per
//	                               range/point query (after MBR pruning)
//	shard_fanout_shards_total      counter: sum of the fan-outs
//	shard_inline_total             counter: range/point queries answered —
//	                               every one runs inline on its caller
//	shard_nn_total                 counter: NN/k-NN queries
//	shard_nn_shards_visited_total  counter: shards actually searched
//	shard_nn_shards_pruned_total   counter: shards skipped by the bound
//	shard_nn_pruned                histogram: shards pruned per NN query
type metrics struct {
	shardCount *obs.Gauge

	fanoutHist  *obs.Histogram
	fanoutTotal *obs.Counter
	inline      *obs.Counter

	nnQueries    *obs.Counter
	nnVisited    *obs.Counter
	nnPruned     *obs.Counter
	nnPrunedHist *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		shardCount:   r.Gauge("shard_count"),
		fanoutHist:   r.Histogram("shard_fanout"),
		fanoutTotal:  r.Counter("shard_fanout_shards_total"),
		inline:       r.Counter("shard_inline_total"),
		nnQueries:    r.Counter("shard_nn_total"),
		nnVisited:    r.Counter("shard_nn_shards_visited_total"),
		nnPruned:     r.Counter("shard_nn_shards_pruned_total"),
		nnPrunedHist: r.Histogram("shard_nn_pruned"),
	}
}

// observeFanout records one range/point query that searched n shards.
func (p *Pool) observeFanout(n int) {
	p.metrics.fanoutTotal.Add(uint64(n))
	p.metrics.fanoutHist.Observe(float64(n))
	p.metrics.inline.Inc()
}

// observeNN records one best-first NN visit: how many shards were searched
// and how many the running bound pruned outright.
func (p *Pool) observeNN(visited, pruned int) {
	p.metrics.nnQueries.Inc()
	p.metrics.nnVisited.Add(uint64(visited))
	p.metrics.nnPruned.Add(uint64(pruned))
	p.metrics.nnPrunedHist.Observe(float64(pruned))
}
