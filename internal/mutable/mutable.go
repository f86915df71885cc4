// Package mutable makes the spatial serving tier updatable: each shard pairs
// the zero-alloc packed R-tree base the whole repo is built around with a
// small overlay — a list of written segments indexed by id (overlay.go) —
// and a tombstone set, so live inserts, deletes, and moves apply in
// microseconds without disturbing the packed structure. Reads overlay
// base+overlay — an id's newest version wins, tombstones win over
// everything — and a background compactor periodically rebuilds the packed
// base from the merged state and atomically epoch-swaps it in, returning the
// shard to the pure packed fast path.
//
// The paper's energy argument is about keeping per-query work small and
// predictable on the mobile side; the overlay/epoch-swap design extends that
// to a mutable world: the warm read path stays allocation-free (a shard with
// no pending updates is byte-for-byte the packed-tree path; a shard with an
// overlay adds only map lookups and a scan of its bounded list), and all
// rebuild cost is batched into the compactor where it amortizes across
// defaultCompactThreshold updates.
//
// The shard layout is fixed for the pool's life: New cuts the local shards
// once, inside the cluster ranges the pool holds (Config.Cuts), and nothing
// re-cuts them, so a shard's index is its identity, its lock order and its
// position in every version vector the pool reports.
//
// Each mechanism has one implementation. The four append queries are thin
// callers of one shard walker (scan, read.go), which per shard picks the
// packed arm or the three-layer merge over the copy of the shard's read
// state it enters (leftright.go). Compaction is one freeze, one fold (a
// merge in the pool's Hilbert frame) and one swap-in of the packed merge
// (finishCompact).
//
// Per-id state is one dense table (idtable.go): a slot — owner and position
// in the owner's base — and a monotone "ever written" bit per packed id, a
// small side map for inserted ids. The pool keeps no other copy of the map:
// a base-resident id, written or not, is read from its owner's leaves at its
// slot, one atomic load and one leaf compare; no read takes a pool-wide
// lock. The owner is also every write's answer to "was the object here": an
// owned id has exactly one visible copy, in its owner (mshard's layering
// invariant), so no write reads a layer and no base keeps a membership set.
//
// Consistency model: what a caller may rely on — scan and k-NN contents,
// the records they return, per-id linearizable writes — is one table,
// DESIGN.md §15. The
// mechanisms behind it: writes to one id are serialized by the ownership
// decision under omu; a read observes every write acknowledged before the
// read began, because a writer acks only after publishing the write — every
// read that starts afterwards enters a copy of the shard's read state that
// holds it (leftright.go) — and the empty-overlay fast path is only
// reachable after a compaction that folded every acknowledged write. A read waits for no writer: it takes no lock
// but settled's last attempt (omu) and locate's retries.
// Multi-shard walks are not snapshot-isolated — a write concurrent with the
// walk may or may not be observed — and a walk that overlapped a cross-shard
// transfer re-derives the transferred ids before it answers (read.go).
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
	"mobispatial/internal/hilbert"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// Config configures an updatable pool.
type Config struct {
	// Ranges are the pool's shards, one updatable shard each, in
	// any order. A shard sits in the cluster range its Lo keys into
	// (shard.RangeForKey over Cuts), and the cluster ranges some shard sits
	// in are the ones this pool holds: a cluster backend passes its replica
	// subset, a monolithic pool any Hilbert runs of the whole map. Each
	// range's Items seed the shard's packed base, packed in the order given:
	// the order shard.Cut leaves them, keys ascending under Bounds, which
	// every fold keeps by merging its writes into it. A run in another order
	// still answers exactly, but packs as given. Their ids are dense, as a
	// generated dataset's are, since the id table is sized to the largest.
	// Required and non-empty.
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
// tier's executor surface (range/point/NN queries, whose records — the
// segments each walk matched, beside its ids — answer data mode), its
// Updatable surface (ApplyMove/ApplyDelete), its live summary
// (SummaryRanges), and the result cache's validity view (qcache.Source).
type Pool struct {
	q *hilbert.Quantizer

	// What the pool keeps of its Config: the scalars its background loops
	// read, and a copy of the cluster cuts. None of the caller's slices is
	// retained.
	compactInterval  time.Duration
	compactMaxAge    time.Duration
	compactThreshold int

	// cuts are the cluster-wide Lo keys (Config.Cuts).
	cuts []uint64
	// writes[g] counts the writes applied to cluster range g — the Version
	// of its summary row. An Apply* adds one for each held range it
	// changed; compactions change no contents and add nothing, so replicas
	// that applied the same writes report the same version whatever their
	// compaction history.
	writes []atomic.Uint64

	// shardCuts are the local shards' Lo keys, ascending
	// (shard.RangeForKey), and shards the shards in that order. Both are set
	// once in New. Shard i sits in cluster range
	// shard.RangeForKey(cuts, shardCuts[i]), and the first shard of each held
	// cluster range g has Lo = cuts[g]; so a held key's shard is
	// shard.RangeForKey(shardCuts, key), and a key is held iff that shard
	// sits in the key's cluster range.
	shardCuts []uint64
	shards    []*mshard

	// ids is the per-id table: slot and written bit (idtable.go).
	ids *idTable

	// omu serializes the ownership decision of every write: ids' owners
	// change only under it, and the shard locks a write needs are acquired,
	// in ascending shard order, before it is released — so shard contents
	// can never disagree with the table. No read takes it
	// (TestReadsTakeNoPoolLock); locate does only after losing a bounded
	// chase of one id to its mover.
	omu sync.Mutex

	nnPool sync.Pool // *nnState

	m *poolMetrics

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
// caller's slices is retained.
func New(cfg Config) (*Pool, error) {
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
	n := 0
	for _, r := range cfg.Ranges {
		for _, it := range r.Items {
			n = max(n, int(it.ID)+1)
		}
	}

	p := &Pool{
		q:                shard.QuantizerFor(cfg.Bounds, hilbert.Order),
		compactInterval:  cfg.CompactInterval,
		compactMaxAge:    cfg.CompactMaxAge,
		compactThreshold: cfg.compactThreshold,
		cuts:             slices.Clone(cfg.Cuts),
		writes:           make([]atomic.Uint64, len(cfg.Cuts)),
		ids:              newIDTable(n),
		stopc:            make(chan struct{}),
	}
	p.nnPool.New = func() any { return newNNState() }

	ranges := slices.Clone(cfg.Ranges)
	slices.SortStableFunc(ranges, func(a, b shard.Range) int { return cmp.Compare(a.Lo, b.Lo) })
	runs := make([][]rtree.Item, len(ranges))
	for i, r := range ranges {
		runs[i] = r.Items
	}
	// The bases pack side by side, each in its run's order (rtree.PackRuns);
	// the id table is stamped below, one shard after another in shard order.
	trees, err := rtree.PackRuns(runs, rtree.Config{})
	if err != nil {
		return nil, fmt.Errorf("mutable: shard base: %w", err)
	}
	for i, r := range ranges {
		g := shard.RangeForKey(p.cuts, r.Lo)
		lo := r.Lo
		if i == 0 || p.shards[i-1].rg != g {
			lo = p.cuts[g] // the first shard of a held range owns its keys from the cut
		}
		s := newMShard(p, i, g, baseOf(trees[i]))
		p.shardCuts = append(p.shardCuts, lo)
		p.shards = append(p.shards, s)
		for pos, it := range s.base.Load().tree.PackOrder() {
			p.ids.set(it.ID, s, pos)
		}
		s.count.Store(int64(len(r.Items)))
	}
	p.ids.shards = append([]*mshard{nil}, p.shards...)
	p.m = newPoolMetrics(cfg.Obs, len(p.shards))

	if cfg.CompactInterval > 0 {
		p.wg.Add(1)
		go p.compactLoop()
	}
	return p, nil
}

// DefaultShards is a monolithic pool's shard count when NewFromDataset is
// given none.
const DefaultShards = 4

// NewFromDataset builds a monolithic updatable pool: one cluster range, the
// whole key space, Hilbert-partitioned into nShards local shards
// (DefaultShards when <= 0), so every write is owned locally. The pool
// keeps nothing of ds but its items, in the shards' leaves.
func NewFromDataset(ds *dataset.Dataset, nShards int, cfg Config) (*Pool, error) {
	if ds == nil {
		return nil, fmt.Errorf("mutable: nil dataset")
	}
	if nShards <= 0 {
		nShards = DefaultShards
	}
	ranges, bounds := shard.PartitionHilbert(ds.Items(), nShards, hilbert.Order)
	if len(ranges) == 0 {
		return nil, fmt.Errorf("mutable: dataset partitioned into zero ranges")
	}
	cfg.Ranges = ranges
	cfg.Cuts = []uint64{0}
	cfg.Bounds = bounds
	return New(cfg)
}

// Close stops the background compactor. Idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.stopc)
		p.wg.Wait()
	})
}

// Workers returns GOMAXPROCS — the width the server sizes its admission
// window from, as shard.Pool.Workers does.
func (p *Pool) Workers() int { return runtime.GOMAXPROCS(0) }

// NumShards returns the local shard count, fixed at New.
func (p *Pool) NumShards() int { return len(p.shards) }

// Len returns the number of live objects the pool currently holds: the sum
// of the shards' owned-id counts, maintained at every ownership change.
func (p *Pool) Len() int {
	var n int64
	for _, s := range p.shards {
		n += s.count.Load()
	}
	return int(n)
}

// Bounds returns the union of the shards' base bounds and any overlay
// geometry — the extent a registration summary should advertise.
func (p *Pool) Bounds() geom.Rect {
	out := geom.EmptyRect()
	for _, s := range p.shards {
		out = out.Union(s.boundsNow())
	}
	return out
}

// Epoch returns shard i's base epoch (number of compactions folded in).
func (p *Pool) Epoch(i int) uint64 { return p.shards[i].epoch.Load() }

// Pending returns shard i's overlay size (unfolded updates + tombstones).
func (p *Pool) Pending(i int) int { return int(p.shards[i].pend.Load()) }

// Version returns shard i's monotone write-version counter — the result
// cache's validity signal (qcache.Source). It advances on every
// visible-state change: under the shard's writer lock, once the change is
// published and before the write is acknowledged, on every overlay
// mutation. A compaction epoch swap changes no answer and leaves it alone.
func (p *Pool) Version(i int) uint64 { return p.shards[i].version.Load() }

// ShardBounds returns shard i's current extent (qcache.Source): base bounds
// plus any overlay geometry, empty for a shard holding nothing.
func (p *Pool) ShardBounds(i int) geom.Rect { return p.shards[i].boundsNow() }

// SummaryRanges appends the summary rows this pool advertises to a cluster
// and returns the cluster-wide range count. There is one row per held
// cluster range — a monolithic pool's one range spans the key space —
// folding the shards that sit in it: the range's cluster key span, live
// items Σ and MBR ∪, and as its Version the writes applied to the range
// (Pool.writes). The local cuts never show.
func (p *Pool) SummaryRanges(dst []proto.RangeInfo) ([]proto.RangeInfo, int) {
	var items int64
	for i, s := range p.shards {
		if i == 0 || s.rg != p.shards[i-1].rg {
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

// SegOf returns the live geometry of id, the zero Segment when the pool
// does not hold it. It is a look-up for benchmarks and tests only: no reply
// path calls it, since a walk hands back the segment it matched
// (SearchAppend, rtree.Neighbor.Seg). For an id live throughout the call the
// result is a geometry the id held at some instant during the call
// (DESIGN.md §15).
func (p *Pool) SegOf(id uint32) geom.Segment {
	seg, _ := p.locate(id)
	return seg
}

// locate is the one per-id look-up: the geometry id holds at some instant
// during the call, false when at some instant the pool did not hold it. The
// id is looked up in the shard the table names — a base-resident one in
// the leaf at its slot, written or not; "not there" is never an answer —
// the id was transferred after the owner was read, or the base swapped
// before its slots were restamped — so the owner is re-read and the look-up
// repeated, under the shard's writer lock this time, which waits out a
// writer still installing the copy or a swap still stamping. A reader that
// loses segOfChases rounds to a ping-ponging mover settles it under omu,
// where no ownership can change. The cost follows the raced transfers and
// swaps (mutable_segof_retries_total), not the reads.
func (p *Pool) locate(id uint32) (geom.Segment, bool) {
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
