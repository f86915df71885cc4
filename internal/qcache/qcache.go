// Package qcache is the server-side query-result cache: a sharded,
// mutex-striped LRU keyed by (kind, cell-snapped geometry, k, shard-version
// vector) storing id-list results with their geometry. The paper's whole
// argument is about minimizing the work a query costs on either side of the
// link; a result cache is the limiting case — the best query is the one
// nobody re-executes.
//
// Invalidation is epoch-based and lazy: every entry records, per
// participating index shard, the shard's monotone version counter at store
// time (the mutable tier bumps it on every visible-state change, every
// overlay write, and not on a compaction epoch swap, which changes no answer
// — see mutable.Pool.Version). A lookup rebuilds the
// same (participation mask, version vector) view from the live Source and
// serves the entry only on exact equality; a mismatched entry is deleted on
// the spot. No write-path eviction protocol exists or is needed: a cached
// entry is dead the moment any owning shard's version advances.
//
// Consistency: versions are bumped under the shard write lock before a write
// is acknowledged, and stores are gated on the view being identical before
// and after executing the superset query (so a result that raced a write is
// never cached). Per-shard version equality therefore implies the shard's
// visible contents are identical to store time, and a hit returns exactly
// what re-execution would. The participation mask closes the growth case: a
// shard whose bounds grow into the query region must have taken a write, so
// its version changed — and the mask recomputation notices the new overlap
// even though the shard was never in the stored vector. A fold's bounds only
// shrink, so at an unchanged version a mask can only lose bits: a miss,
// never a stale hit.
package qcache

import (
	"sync"
	"sync/atomic"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
)

// Source is the live view of the index the cache validates entries against.
// mutable.Pool implements it (per-shard write-version counters); static
// pools are wrapped in Static.
type Source interface {
	NumShards() int
	// Version returns shard i's monotone write-version counter. It must
	// advance (under the shard's write lock, before the write is
	// acknowledged) whenever the shard's visible contents can change.
	Version(i int) uint64
	// ShardBounds returns shard i's current extent; an empty rect means
	// the shard holds nothing.
	ShardBounds(i int) geom.Rect
}

// Static adapts an immutable index to Source: one pseudo-shard whose
// version never moves, so every entry stays valid forever.
type Static struct {
	// Rect is the index extent; an infinite rect is fine (it participates
	// in every query region, which is all a static index needs).
	Rect geom.Rect
}

// NumShards implements Source.
func (s Static) NumShards() int { return 1 }

// Version implements Source.
func (s Static) Version(int) uint64 { return 0 }

// ShardBounds implements Source.
func (s Static) ShardBounds(int) geom.Rect { return s.Rect }

// View is the validity snapshot an entry is stored and checked under: which
// shards could contribute to the query region (Mask bit i) and each
// participant's version, in ascending shard order. Callers reuse one View as
// scratch; BuildView appends into Vers without allocating when capacity
// suffices.
type View struct {
	Mask uint64
	Vers []uint64
}

// participateAll is the Mask sentinel for >64 shards: every shard
// participates and every version is recorded.
const participateAll = ^uint64(0)

// BuildView snapshots src's validity view for a query over region. Per
// shard, the version is read before the bounds: paired with the pre/post
// equality gate on stores, version equality then proves the bounds (and so
// the mask bit) reflect the same visible contents as the versions — at most
// shrunk by a fold since — see the package comment and DESIGN.md §16.
func BuildView(src Source, region geom.Rect, v *View) {
	v.Mask = 0
	v.Vers = v.Vers[:0]
	n := src.NumShards()
	if n > 64 {
		v.Mask = participateAll
		for i := 0; i < n; i++ {
			v.Vers = append(v.Vers, src.Version(i))
		}
		return
	}
	for i := 0; i < n; i++ {
		ver := src.Version(i)
		if src.ShardBounds(i).Intersects(region) {
			v.Mask |= 1 << uint(i)
			v.Vers = append(v.Vers, ver)
		}
	}
}

// Equal reports whether two views are identical.
func (v *View) Equal(o *View) bool {
	if v.Mask != o.Mask || len(v.Vers) != len(o.Vers) {
		return false
	}
	for i := range v.Vers {
		if v.Vers[i] != o.Vers[i] {
			return false
		}
	}
	return true
}

// HintOf fingerprints src's full version vector as one non-zero uint64 —
// the epoch hint the serving tier stamps on the replies that ask for it, so
// clients can validate semantically cached shipments. Any write anywhere changes the hint
// (conservative: cross-shard collisions aside, hint equality means "nothing
// changed"). Zero is reserved on the wire for "no epoch information".
func HintOf(src Source) uint64 {
	h := uint64(fnvOffset64)
	n := src.NumShards()
	for i := 0; i < n; i++ {
		h = fnvU64(h, src.Version(i))
	}
	if h == 0 {
		h = fnvOffset64
	}
	return h
}

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes caps the total payload bytes across all stripes; defaults
	// to 64 MB.
	MaxBytes int
	// CellSize is the snapping grid pitch in map units; defaults to 512.
	// The cache stores it so every consumer (single queries, batches,
	// CLIs) keys against the same grid.
	CellSize float64
	// Obs receives qcache_* metrics; nil disables them.
	Obs *obs.Hub

	// stripes is numStripes unless a test set it (a power of two), to watch
	// LRU order inside one stripe.
	stripes int
}

// numStripes is the lock-stripe count, a power of two.
const numStripes = 16

// MaxResultIDs caps one entry's id count; oversized results bypass the
// cache (storing them would evict many hot entries for one cold monster).
// A filler whose superset already exceeds it can skip the rest of the fill.
const MaxResultIDs = 8192

// DefaultCellSize is the default snapping grid pitch in map units (TIGER
// datasets span ~10^6 units; 512 keeps a hotspot's jittered windows inside
// a handful of cells).
const DefaultCellSize = 512

func (c *Config) fill() {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.stripes <= 0 {
		c.stripes = numStripes
	}
	if !(c.CellSize > 0) {
		c.CellSize = DefaultCellSize
	}
}

// entry is one cached result, linked into its stripe's LRU list.
type entry struct {
	key   Key
	mask  uint64
	vers  []uint64
	ids   []uint32
	segs  []geom.Segment
	dists []float64
	bytes int

	prev, next *entry
}

// entryOverhead approximates one entry's fixed cost (struct, map slot,
// slice headers) for the byte budget.
const entryOverhead = 128

func payloadBytes(nVers, nIDs, nSegs, nDists int) int {
	return entryOverhead + nVers*8 + nIDs*4 + nSegs*32 + nDists*8
}

// stripe is one lock domain: a map, an intrusive LRU list (head = most
// recent), and a small freelist so eviction churn reuses entry slices.
type stripe struct {
	mu    sync.Mutex
	m     map[Key]*entry
	head  *entry
	tail  *entry
	bytes int
	free  *entry
	freeN int
}

// maxFreePerStripe bounds the freelist so dead entries' slices do not pin
// memory past a burst.
const maxFreePerStripe = 32

func (st *stripe) pushFront(e *entry) {
	e.prev = nil
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
}

func (st *stripe) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (st *stripe) touch(e *entry) {
	if st.head == e {
		return
	}
	st.unlink(e)
	st.pushFront(e)
}

// removeLocked deletes e from the stripe and recycles it.
func (st *stripe) removeLocked(e *entry) {
	st.unlink(e)
	delete(st.m, e.key)
	st.bytes -= e.bytes
	if st.freeN < maxFreePerStripe {
		e.vers = e.vers[:0]
		e.ids = e.ids[:0]
		e.segs = e.segs[:0]
		e.dists = e.dists[:0]
		e.bytes = 0
		e.next = st.free
		st.free = e
		st.freeN++
	}
}

func (st *stripe) alloc() *entry {
	if e := st.free; e != nil {
		st.free = e.next
		st.freeN--
		e.next = nil
		return e
	}
	return &entry{}
}

// Cache is the striped LRU. All methods are safe for concurrent use.
type Cache struct {
	cell      float64
	maxBytes  int
	maxStripe int
	mask      uint64
	stripes   []stripe

	hits, misses, stores, invals atomic.Uint64
	bypasses, races, evictions   atomic.Uint64
	entries, bytes               atomic.Int64

	m cacheMetrics
}

type cacheMetrics struct {
	hits, misses, stores, invals *obs.Counter
	bypasses, races, evictions   *obs.Counter
	entriesG, bytesG             *obs.Gauge
}

func newCacheMetrics(h *obs.Hub) cacheMetrics {
	var m cacheMetrics
	if h == nil || h.Reg == nil {
		return m // nil handles are no-ops
	}
	m.hits = h.Reg.Counter("qcache_hits_total")
	m.misses = h.Reg.Counter("qcache_misses_total")
	m.stores = h.Reg.Counter("qcache_stores_total")
	m.invals = h.Reg.Counter("qcache_invalidations_total")
	m.bypasses = h.Reg.Counter("qcache_bypass_total")
	m.races = h.Reg.Counter("qcache_store_races_total")
	m.evictions = h.Reg.Counter("qcache_evictions_total")
	m.entriesG = h.Reg.Gauge("qcache_entries")
	m.bytesG = h.Reg.Gauge("qcache_bytes")
	return m
}

// New builds a Cache.
func New(cfg Config) *Cache {
	cfg.fill()
	c := &Cache{
		cell:      cfg.CellSize,
		maxBytes:  cfg.MaxBytes,
		maxStripe: cfg.MaxBytes / cfg.stripes,
		mask:      uint64(cfg.stripes - 1),
		stripes:   make([]stripe, cfg.stripes),
		m:         newCacheMetrics(cfg.Obs),
	}
	if c.maxStripe < payloadBytes(1, 1, 1, 0) {
		c.maxStripe = payloadBytes(1, 1, 1, 0)
	}
	for i := range c.stripes {
		c.stripes[i].m = make(map[Key]*entry)
	}
	return c
}

// CellSize returns the snapping grid pitch every key must be built with.
func (c *Cache) CellSize() float64 { return c.cell }

// MaxBytes returns the payload budget the cache was built with.
func (c *Cache) MaxBytes() int { return c.maxBytes }

// Get looks k up under view v and, on a hit, appends the stored payload to
// the three destination slices (any may be non-nil capacity-bearing scratch;
// the copy happens under the stripe lock, so the returned slices never alias
// cache memory). A present entry whose view mismatches is deleted and
// counted as an invalidation plus a miss.
func (c *Cache) Get(k Key, v *View, ids []uint32, segs []geom.Segment, dists []float64) ([]uint32, []geom.Segment, []float64, bool) {
	st := &c.stripes[k.hash()&c.mask]
	st.mu.Lock()
	e := st.m[k]
	if e == nil {
		st.mu.Unlock()
		c.misses.Add(1)
		c.m.misses.Inc()
		return ids, segs, dists, false
	}
	if e.mask != v.Mask || !versEq(e.vers, v.Vers) {
		eb := e.bytes
		st.removeLocked(e)
		st.mu.Unlock()
		c.sizeDelta(-1, -int64(eb))
		c.invals.Add(1)
		c.m.invals.Inc()
		c.misses.Add(1)
		c.m.misses.Inc()
		return ids, segs, dists, false
	}
	st.touch(e)
	ids = append(ids, e.ids...)
	segs = append(segs, e.segs...)
	dists = append(dists, e.dists...)
	st.mu.Unlock()
	c.hits.Add(1)
	c.m.hits.Inc()
	return ids, segs, dists, true
}

func versEq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Put stores a result computed under pre, revalidated against post (the view
// rebuilt after execution): if a write raced the traversal the views differ
// and the store is dropped — caching a result that mixes shard states would
// poison later hits. Oversized results are dropped too.
func (c *Cache) Put(k Key, pre, post *View, ids []uint32, segs []geom.Segment, dists []float64) {
	if len(ids) > MaxResultIDs {
		c.bypasses.Add(1)
		c.m.bypasses.Inc()
		return
	}
	if !pre.Equal(post) {
		c.races.Add(1)
		c.m.races.Inc()
		return
	}
	nb := payloadBytes(len(pre.Vers), len(ids), len(segs), len(dists))
	st := &c.stripes[k.hash()&c.mask]
	st.mu.Lock()
	var dEntries, dBytes int64
	e := st.m[k]
	if e != nil {
		st.bytes -= e.bytes
		dBytes -= int64(e.bytes)
		st.touch(e)
	} else {
		e = st.alloc()
		e.key = k
		st.m[k] = e
		st.pushFront(e)
		dEntries++
	}
	e.mask = pre.Mask
	e.vers = append(e.vers[:0], pre.Vers...)
	e.ids = append(e.ids[:0], ids...)
	e.segs = append(e.segs[:0], segs...)
	e.dists = append(e.dists[:0], dists...)
	e.bytes = nb
	st.bytes += nb
	dBytes += int64(nb)
	var evicted uint64
	for st.bytes > c.maxStripe && st.tail != nil && st.tail != e {
		dEntries--
		dBytes -= int64(st.tail.bytes)
		st.removeLocked(st.tail)
		evicted++
	}
	st.mu.Unlock()
	c.sizeDelta(dEntries, dBytes)
	c.stores.Add(1)
	c.m.stores.Inc()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.m.evictions.Add(evicted)
	}
}

// sizeDelta folds one stripe mutation into the global size atomics and
// republishes the gauges (miss/store path only; hits touch neither).
func (c *Cache) sizeDelta(dEntries, dBytes int64) {
	e := c.entries.Add(dEntries)
	b := c.bytes.Add(dBytes)
	c.m.entriesG.Set(float64(e))
	c.m.bytesG.Set(float64(b))
}

// Bypass counts a query shape the serving tier declined to cache (dx pools,
// unsnappable windows, bounded NN legs).
func (c *Cache) Bypass() {
	c.bypasses.Add(1)
	c.m.bypasses.Inc()
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses, Stores, Invalidations uint64
	Bypasses, StoreRaces, Evictions     uint64
	Entries                             int
	Bytes                               int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats sums the stripe states.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stores:        c.stores.Load(),
		Invalidations: c.invals.Load(),
		Bypasses:      c.bypasses.Load(),
		StoreRaces:    c.races.Load(),
		Evictions:     c.evictions.Load(),
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s.Entries += len(st.m)
		s.Bytes += st.bytes
		st.mu.Unlock()
	}
	return s
}
