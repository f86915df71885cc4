// Package mutable makes the spatial serving tier updatable: each shard pairs
// the zero-alloc packed R-tree base the whole repo is built around with a
// small dynamic delta tree (internal/dynrtree) and a tombstone set, so live
// inserts, deletes, and moves apply in microseconds without disturbing the
// packed structure. Reads overlay base+delta — an id's newest version wins,
// tombstones win over everything — and a background compactor periodically
// rebuilds the packed base from the merged state and atomically epoch-swaps
// it in, returning the shard to the pure packed fast path.
//
// The paper's energy argument is about keeping per-query work small and
// predictable on the mobile side; the delta/epoch-swap design extends that
// to a mutable world: the warm read path stays allocation-free (a shard with
// no pending updates is byte-for-byte the packed-tree path; a shard with an
// overlay adds only map lookups and a bounded delta-tree walk), and all
// rebuild cost is batched into the compactor where it amortizes across
// defaultCompactThreshold updates.
//
// The shard layout itself is also mutable: the pool's local cut table and
// shard set live in one immutable topology value behind an atomic pointer,
// and a background repartitioner (see repartition.go) splits hot shards at
// their median Hilbert key and merges cold neighbors by building replacement
// shards off to the side and swapping a new topology in — the same
// freeze/rebuild/swap discipline compaction uses, so readers never block on a
// repartition either. The local cuts are the pool's own: every shard sits
// inside one cluster range (Config.Cuts), which never moves, so what the pool
// advertises — one summary row per held cluster range — keeps its shape
// whatever the repartitioner does.
//
// Each mechanism has one implementation. The four append queries are thin
// callers of one shard walker (scan, read.go), which per shard picks the
// lock-free packed arm or the read-locked three-layer merge. Compaction and
// repartitioning share one freeze (freezeAll, n shards at once), one fold
// (mergedItems) and one swap-in of a rebuilt base (finishCompact); split and
// merge are both recut (repartition.go), "re-cut a run of adjacent ranges".
//
// Per-id state is one dense table (idtable.go): owner and a monotone
// "ever written" bit per dataset id, a small side map for inserted ids. A
// never-written id resolves to its dataset geometry with no lock and no hash
// on every read path, a written one with one atomic load of its owner; no
// read takes a pool-wide lock.
//
// Consistency model: what a caller may rely on — scan and k-NN contents,
// per-id linearizable writes, SegOf — is one table, DESIGN.md §15. The
// mechanisms behind it: writes to one id are serialized by the ownership
// decision under omu; a read observes every write acknowledged before the
// read began, because writers publish under the shard write lock that readers
// with a non-empty overlay take in read mode, and the empty-overlay fast path
// is only reachable after a compaction that folded every acknowledged write.
// A topology swap preserves this: the retired shards keep their contents (the
// repartitioner copies, never moves, the live overlay into the replacement
// shards), so a reader still holding the old topology keeps observing every
// acknowledged write until it drops the snapshot. Multi-shard walks are not
// snapshot-isolated — a write concurrent with the walk may or may not be
// observed — and a walk that overlapped a cross-shard transfer re-derives the
// transferred ids before it answers (read.go).
//
// Epochs count compactions: an update ack carries the owning shard's current
// base epoch E, meaning the write lives in the overlay above base E and will
// be folded into base E+1 or later — the distance between a replica's acked
// epoch and its current epoch is the staleness the stats surface reports.
package mutable

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/heat"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/shard"
)

// Config configures an updatable pool.
type Config struct {
	// Dataset supplies the canonical geometry of ids below Dataset.Len().
	// Required.
	Dataset *dataset.Dataset

	// Ranges are the pool's initial shards, one updatable shard each, in
	// any order. A shard sits in the cluster range its Lo keys into
	// (shard.RangeForKey over Cuts), and the cluster ranges some shard sits
	// in are the ones this pool holds: a cluster backend passes its replica
	// subset, a monolithic pool any Hilbert runs of the whole map. Each
	// range's Items seed the shard's packed base. Required and non-empty.
	Ranges []shard.Range

	// Cuts are the Lo keys of every range in the *cluster-wide*
	// partitioning, ascending — the gap-free write-ownership table
	// (shard.RangeForKey). A monolithic pool is one cluster range: Cuts is
	// the one key 0. Required and non-empty.
	Cuts []uint64

	// Bounds is the partitioning extent the cluster quantized over —
	// shard.BoundsOf of the full item set. Writes are keyed with
	// shard.WriteKey under a quantizer over these bounds, so every
	// process must use the same value. Required and non-empty.
	Bounds geom.Rect

	// CompactInterval is the compactor's poll period. 0 means 100ms;
	// negative disables the background compactor (tests drive
	// ForceCompact directly).
	CompactInterval time.Duration

	// CompactMaxAge bounds staleness: a shard whose overlay is non-empty
	// and older than this is compacted even below the size trigger. A
	// hot working set that keeps re-writing the same few objects never
	// grows its overlay past the object count, so a size trigger alone
	// would let those writes age in the overlay forever. Defaults to 1s;
	// negative disables the age trigger.
	CompactMaxAge time.Duration

	// Adaptive configures workload-adaptive repartitioning (split hot
	// shards, merge cold neighbors). See AdaptiveConfig; the zero value
	// leaves the topology static.
	Adaptive AdaptiveConfig

	// Obs receives mutable_* metrics; nil disables them.
	Obs *obs.Hub

	// compactThreshold is defaultCompactThreshold unless a test lowered it
	// to see many compactions in a short soak.
	compactThreshold int
}

// defaultCompactThreshold is the overlay size (pending inserts+moves+
// tombstones) at which the compactor rebuilds a shard's base.
const defaultCompactThreshold = 256

func (c *Config) fill() {
	if c.compactThreshold <= 0 {
		c.compactThreshold = defaultCompactThreshold
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = 100 * time.Millisecond
	}
	if c.CompactMaxAge == 0 {
		c.CompactMaxAge = time.Second
	}
	c.Adaptive.fill()
}

// versGenShift positions the topology generation in the high bits of every
// reported shard version. Two different topologies may reuse a shard index
// for different shards, and two different shards' raw write counters can
// coincide — the generation prefix makes every version value from one
// topology incomparable with every value from another, so the result cache's
// (mask, version-vector) views can never falsely match across a repartition.
// 48 bits leave room for ~2.8e14 writes per shard before the counter would
// bleed into the generation, which a process will not live to see.
const versGenShift = 48

// topology is one immutable generation of the pool's shard layout: the local
// cut table, the shard set, and the per-shard heat tracker. Readers load it
// once per operation through the pool's atomic pointer; the repartitioner
// publishes a fresh value and never mutates a published one.
//
// Invariant (verifyOwnersLocked checks it under checkOwners): shard i sits in
// cluster range shard.RangeForKey(Pool.cuts, cuts[i]), and the first shard of
// each held cluster range g has Lo = Pool.cuts[g]. So a held key's shard is
// shard.RangeForKey(cuts, key), and a key is held iff that shard sits in the
// key's cluster range.
type topology struct {
	// gen counts repartitions; it prefixes every Pool.Version.
	gen uint64
	// cuts are the local shards' Lo keys, ascending (shard.RangeForKey).
	cuts []uint64
	// shards are the live shards, in local index order.
	shards []*mshard
	// heat tracks per-shard EWMA query rates; sized to shards.
	heat *heat.Tracker
}

// hiOf returns span i's inclusive Hi key under a cut table: one below the
// next cut, the top of the key space for the last span. Equal adjacent cuts
// are legal (a span owning no key); such a span reports Hi = Lo so it never
// carries an inverted span.
func hiOf(cuts []uint64, i int) uint64 {
	if i+1 >= len(cuts) {
		return math.MaxUint64
	}
	if cuts[i+1] <= cuts[i] {
		return cuts[i]
	}
	return cuts[i+1] - 1
}

// Pool is an updatable sharded spatial index. It implements the serving
// tier's executor surface (range/point/NN queries), its Updatable surface
// (ApplyInsert/ApplyDelete/ApplyMove, plus SegOf for data-mode responses
// over ids the base dataset has never heard of), its live summary
// (SummaryRanges), and the result cache's validity view (qcache.Source).
type Pool struct {
	ds *dataset.Dataset
	q  *hilbert.Quantizer

	// What the pool keeps of its Config: the scalars its background loops
	// read, and a copy of the cluster cuts. None of the caller's slices is
	// retained.
	compactInterval  time.Duration
	compactMaxAge    time.Duration
	compactThreshold int
	adaptive         AdaptiveConfig

	// cuts are the cluster-wide Lo keys (Config.Cuts), fixed for the pool's
	// life: the repartitioner moves local cuts only, inside these.
	cuts []uint64
	// writes[g] counts the writes applied to cluster range g — the Version
	// of its summary row. An Apply* adds one for each held range it
	// changed; compactions and recuts change no contents and add nothing,
	// so replicas that applied the same writes report the same version
	// whatever their compaction or split history.
	writes []atomic.Uint64

	topo atomic.Pointer[topology]

	// liSeq hands out unique lock-ordering ids for new shards (mshard.li).
	liSeq atomic.Int64

	// ids is the per-id table: owner and written bit (idtable.go).
	ids *idTable

	// omu serializes the ownership decision of every write: ids' owners
	// change only under it, and the shard locks a write needs are acquired,
	// in ascending li order, before it is released — so shard contents can
	// never disagree with the table. Topology swaps also happen under omu,
	// so a writer always resolves ownership against the topology that will
	// still be current when the shard locks are taken. No read takes it
	// (TestReadsTakeNoPoolLock); SegOf does only after losing a bounded
	// chase of one id to its mover.
	omu sync.Mutex

	nnPool sync.Pool // *nnState

	m *poolMetrics

	splits, merges atomic.Uint64

	// xfers brackets cross-shard transfers: any write that makes an id's
	// visible copy leave one shard while the id lands in (or is deleted
	// ahead of a re-insert into) another. Transfer i holds it at 2i+1 from
	// before its first shard mutation until after its last shard unlock,
	// then leaves it at 2i+2 (beginXfer / endXfer, under omu), so a
	// multi-shard walk that reads it even and unchanged across itself
	// overlapped no transfer, and any other walk knows which transfers it
	// overlapped (read.go). Same-shard updates, the moving-object hot
	// path, never touch it.
	xfers atomic.Uint64

	// xferRing records WHICH ids transferred: slot i%len holds
	// (i+1)<<32 | id for transfer i, written before the counter shows the
	// transfer begun. The tag tells a reader the entry it wants from one a
	// later lap overwrote (raced, read.go).
	xferRing [xferRingSize]atomic.Uint64

	stopc     chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds an updatable pool over cfg.Ranges. The range Items seed the
// packed bases (the trees copy them) and Cuts is cloned, so none of the
// caller's slices is retained. Items carry dataset ids at dataset geometry.
func New(cfg Config) (*Pool, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("mutable: nil dataset")
	}
	if len(cfg.Ranges) == 0 {
		return nil, fmt.Errorf("mutable: no ranges")
	}
	if len(cfg.Cuts) == 0 {
		return nil, fmt.Errorf("mutable: no cuts")
	}
	for i := 1; i < len(cfg.Cuts); i++ {
		if cfg.Cuts[i] < cfg.Cuts[i-1] {
			return nil, fmt.Errorf("mutable: cuts not ascending at %d", i)
		}
	}
	if cfg.Bounds.IsEmpty() {
		return nil, fmt.Errorf("mutable: empty partition bounds")
	}
	cfg.fill()

	p := &Pool{
		ds:               cfg.Dataset,
		q:                shard.QuantizerFor(cfg.Bounds, hilbert.Order),
		compactInterval:  cfg.CompactInterval,
		compactMaxAge:    cfg.CompactMaxAge,
		compactThreshold: cfg.compactThreshold,
		adaptive:         cfg.Adaptive,
		cuts:             slices.Clone(cfg.Cuts),
		writes:           make([]atomic.Uint64, len(cfg.Cuts)),
		ids:              newIDTable(cfg.Dataset.Len()),
		stopc:            make(chan struct{}),
	}
	p.nnPool.New = func() any { return newNNState(p) }
	p.m = newPoolMetrics(cfg.Obs)

	ranges := slices.Clone(cfg.Ranges)
	slices.SortStableFunc(ranges, func(a, b shard.Range) int { return cmp.Compare(a.Lo, b.Lo) })
	t := &topology{}
	for i, r := range ranges {
		g := shard.RangeForKey(p.cuts, r.Lo)
		lo := r.Lo
		if i == 0 || t.shards[i-1].rg != g {
			lo = p.cuts[g] // the first shard of a held range owns its keys from the cut
		}
		s, err := newMShard(p, g, r.Items, map[uint32]geom.Segment{})
		if err != nil {
			return nil, err
		}
		t.cuts = append(t.cuts, lo)
		t.shards = append(t.shards, s)
		for _, it := range r.Items {
			if int(it.ID) >= p.ds.Len() {
				return nil, fmt.Errorf("mutable: range %d item id %d outside the dataset", r.Index, it.ID)
			}
			p.ids.setOwner(it.ID, s)
		}
		s.count.Store(int64(len(r.Items)))
	}
	t.heat = heat.New(len(t.shards), cfg.Adaptive.HalfLifeSeconds)
	p.topo.Store(t)

	if cfg.CompactInterval > 0 {
		p.wg.Add(1)
		go p.compactLoop()
	}
	if cfg.Adaptive.Enabled && cfg.Adaptive.Interval > 0 {
		p.wg.Add(1)
		go p.repartitionLoop()
	}
	return p, nil
}

// NewFromDataset builds a monolithic updatable pool: one cluster range, the
// whole key space, Hilbert-partitioned into nShards local shards, so every
// write is owned locally.
func NewFromDataset(ds *dataset.Dataset, nShards int, cfg Config) (*Pool, error) {
	if ds == nil {
		return nil, fmt.Errorf("mutable: nil dataset")
	}
	ranges, bounds := shard.PartitionHilbert(ds.Items(), nShards, hilbert.Order)
	if len(ranges) == 0 {
		return nil, fmt.Errorf("mutable: dataset partitioned into zero ranges")
	}
	cfg.Dataset = ds
	cfg.Ranges = ranges
	cfg.Cuts = []uint64{0}
	cfg.Bounds = bounds
	return New(cfg)
}

// Close stops the background compactor and repartitioner. Idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.stopc)
		p.wg.Wait()
	})
}

// Workers returns GOMAXPROCS — the width the server sizes its admission
// window from, as shard.Pool.Workers does.
func (p *Pool) Workers() int { return runtime.GOMAXPROCS(0) }

// Dataset returns the base dataset (canonical geometry of original ids).
func (p *Pool) Dataset() *dataset.Dataset { return p.ds }

// NumShards returns the current local shard count.
func (p *Pool) NumShards() int { return len(p.topo.Load().shards) }

// Len returns the number of live objects the pool currently holds: the sum
// of the shards' owned-id counts, maintained at every ownership change.
func (p *Pool) Len() int {
	var n int64
	for _, s := range p.topo.Load().shards {
		n += s.count.Load()
	}
	return int(n)
}

// Bounds returns the union of the shards' base bounds and any overlay
// geometry — the extent a registration summary should advertise.
func (p *Pool) Bounds() geom.Rect {
	out := geom.EmptyRect()
	for _, s := range p.topo.Load().shards {
		out = out.Union(s.boundsNow())
	}
	return out
}

// Epoch returns shard i's base epoch (number of compactions folded in), or 0
// for an index outside the current topology (a caller may race a swap).
func (p *Pool) Epoch(i int) uint64 {
	if t := p.topo.Load(); i >= 0 && i < len(t.shards) {
		return t.shards[i].epoch.Load()
	}
	return 0
}

// Pending returns shard i's overlay size (unfolded updates + tombstones), or
// 0 for an index outside the current topology.
func (p *Pool) Pending(i int) int {
	if t := p.topo.Load(); i >= 0 && i < len(t.shards) {
		return int(t.shards[i].pend.Load())
	}
	return 0
}

// Version returns shard i's monotone write-version counter — the result
// cache's validity signal (qcache.Source). It advances under the shard
// write lock, before the write is acknowledged, on every overlay mutation
// and on every compaction epoch swap. The topology generation occupies the
// high bits (versGenShift), so a version observed under one topology can
// never equal a version observed under another — a repartition invalidates
// every cached view wholesale, by construction rather than by protocol.
func (p *Pool) Version(i int) uint64 {
	t := p.topo.Load()
	if i < 0 || i >= len(t.shards) {
		return t.gen << versGenShift
	}
	return t.gen<<versGenShift | t.shards[i].version.Load()
}

// ShardBounds returns shard i's current extent (qcache.Source): base bounds
// plus any overlay geometry, empty for a shard holding nothing or an index
// outside the current topology.
func (p *Pool) ShardBounds(i int) geom.Rect {
	if t := p.topo.Load(); i >= 0 && i < len(t.shards) {
		return t.shards[i].boundsNow()
	}
	return geom.EmptyRect()
}

// Gen returns the topology generation (the number of repartitions applied).
func (p *Pool) Gen() uint64 { return p.topo.Load().gen }

// Splits returns the number of shard splits applied.
func (p *Pool) Splits() uint64 { return p.splits.Load() }

// Merges returns the number of shard merges applied.
func (p *Pool) Merges() uint64 { return p.merges.Load() }

// SummaryRanges appends the summary rows this pool advertises to a cluster
// and returns the cluster-wide range count, all from one topology snapshot.
// There is one row per held cluster range — a monolithic pool's one range
// spans the key space — folding the shards that sit in it: the range's
// cluster key span, live items Σ, MBR ∪ and heat Σ, and as its Version the
// writes applied to the range (Pool.writes). The local cuts never show: a
// split or merge changes no row's shape, and no row's version.
func (p *Pool) SummaryRanges(dst []proto.RangeInfo) ([]proto.RangeInfo, int) {
	t := p.topo.Load()
	t.heat.Fold()
	var items int64
	for i, s := range t.shards {
		if i == 0 || s.rg != t.shards[i-1].rg {
			dst = append(dst, proto.RangeInfo{
				Index:   uint32(s.rg),
				Lo:      p.cuts[s.rg],
				Hi:      hiOf(p.cuts, s.rg),
				Version: p.writes[s.rg].Load(),
				MBR:     geom.EmptyRect(),
			})
			items = 0
		}
		row := &dst[len(dst)-1]
		items += s.count.Load()
		row.Items = clampItems(items)
		row.MBR = row.MBR.Union(s.boundsNow())
		row.Heat += t.heat.Rate(i)
	}
	return dst, len(p.cuts)
}

// clampItems clamps a live item count into the wire's uint32 field.
func clampItems(n int64) uint32 {
	if n < 0 {
		return 0
	}
	if n > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(n)
}

// SegOf returns the live geometry of id, falling back to the base dataset
// for original ids the pool no longer tracks and to the zero Segment for
// unknown ids. This is the serving tier's data-mode resolver: inserted ids
// sit at or above Dataset.Len(), where Dataset.Seg would be out of range.
// For an id live throughout the call the result is a geometry the id held at
// some instant during the call (DESIGN.md §15).
func (p *Pool) SegOf(id uint32) geom.Segment {
	if !p.ids.written(id) {
		return p.ds.Seg(id)
	}
	seg, held := p.locate(id)
	if !held && int(id) < p.ds.Len() {
		return p.ds.Seg(id)
	}
	return seg
}

// locate is the one per-id look-up: the geometry id holds at some instant
// during the call, false when at some instant the pool did not hold it. A
// never-written id has only its dataset geometry (idTable). A written one is
// looked up in the shard the table names; "not there" is never an answer —
// the id was transferred after the owner was read — so the owner is re-read
// and the look-up repeated, under the shard lock this time, which waits out
// a writer still installing the copy. A reader that loses segOfChases rounds
// to a ping-ponging mover settles it under omu, where no ownership can
// change. The cost follows the raced transfers
// (mutable_segof_retries_total), not the reads.
func (p *Pool) locate(id uint32) (geom.Segment, bool) {
	if !p.ids.written(id) {
		return p.ds.Seg(id), p.ids.owner(id) != nil
	}
	for try := 0; try < segOfChases; try++ {
		s := p.ids.owner(id)
		if s == nil {
			return geom.Segment{}, false
		}
		if seg, ok := s.find(id, try > 0); ok {
			return seg, true
		}
		p.m.segofRetries.Inc()
	}
	p.omu.Lock()
	defer p.omu.Unlock()
	if s := p.ids.owner(id); s != nil {
		return s.find(id, true)
	}
	return geom.Segment{}, false
}

// segOfChases bounds locate's lock-free pursuit of one id.
const segOfChases = 4
