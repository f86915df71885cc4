package mutable

import (
	"slices"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/heat"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// Workload-adaptive repartitioning. A background loop watches the per-shard
// EWMA heat the read path samples and reshapes the local cut table online: a
// shard drawing a disproportionate share of queries splits at the median
// Hilbert key of its contents, and a run of cold neighbors merges back into
// one. The cluster ranges stay put: a split stays inside its shard, so inside
// the shard's cluster range, and only neighbors of one cluster range merge —
// so the repartitioner runs on any pool, a replica holding a subset of the
// cluster included, and nothing outside the pool sees it.
// Both are one primitive, recut — re-cut a run of adjacent Hilbert ranges —
// built from the compactor's own freeze (freezeAll) and fold (mergedItems):
// replacement shards are built off to the side from immutable inputs, then a
// new topology generation is published through the pool's atomic pointer —
// so readers never block on a repartition and the zero-alloc warm read path
// survives unchanged.
//
// Retirement semantics: the replaced shard keeps its layers intact (the swap
// COPIES the live overlay into the replacements, it never moves it), so a
// reader still holding the previous topology snapshot keeps observing every
// acknowledged write; the retired shard becomes garbage when those readers
// drain. The swap happens under the pool's omu, the same lock every write
// resolves ownership under, so no write can land in a retired shard.

// AdaptiveConfig tunes the repartitioner. The zero value disables it.
type AdaptiveConfig struct {
	// Enabled turns the heat-driven split/merge loop on.
	Enabled bool

	// Interval is the decision period: each tick applies at most one split
	// or merge. 0 means 500ms; negative disables the background loop
	// (tests drive RepartitionOnce directly).
	Interval time.Duration

	// MinShardItems stops splitting shards that are already small: a shard
	// splits only when it holds at least 2*MinShardItems objects.
	// Defaults to 512.
	MinShardItems int

	// MaxShards caps the shard count. Defaults to 64 — the result cache's
	// per-shard version-vector width.
	MaxShards int

	// MinShards floors the shard count for merges. Defaults to 1 (a pool
	// never merges below one shard per held range).
	MinShards int

	// HalfLifeSeconds is the heat EWMA half-life;
	// 0 means heat.DefaultHalfLife.
	HalfLifeSeconds float64
}

const (
	// splitFactor is the heat multiple over the per-shard mean at which a
	// shard becomes split-eligible.
	splitFactor = 1.5
	// mergeFactor is the heat multiple of the mean below which an adjacent
	// pair's combined heat makes it merge-eligible; the gap to splitFactor
	// is the hysteresis that stops oscillation.
	mergeFactor = 0.3
)

func (c *AdaptiveConfig) fill() {
	if c.Interval == 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.MinShardItems <= 0 {
		c.MinShardItems = 512
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	if c.HalfLifeSeconds <= 0 {
		c.HalfLifeSeconds = heat.DefaultHalfLife
	}
}

func (p *Pool) repartitionLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.adaptive.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stopc:
			return
		case <-t.C:
			p.RepartitionOnce()
		}
	}
}

// RepartitionOnce runs one decision tick: fold the heat, then apply at most
// one split (of the hottest eligible shard) or merge (of the coldest
// adjacent pair inside one cluster range). It reports whether the topology
// changed. The background loop calls it every Adaptive.Interval; tests call
// it directly for deterministic repartitions.
func (p *Pool) RepartitionOnce() bool {
	t := p.topo.Load()
	t.heat.Fold()
	cfg := &p.adaptive
	n := len(t.shards)
	total := t.heat.Total()
	if total <= 0 {
		return false
	}
	mean := total / float64(n)

	// Split the hottest eligible shard. A lone shard splits on any
	// traffic at all — with n == 1 the mean test is vacuous.
	if n < cfg.MaxShards {
		best, bestRate := -1, 0.0
		for i, s := range t.shards {
			r := t.heat.Rate(i)
			if r > bestRate && (n == 1 || r >= splitFactor*mean) &&
				int(s.count.Load()) >= 2*cfg.MinShardItems {
				best, bestRate = i, r
			}
		}
		if best >= 0 && p.splitShard(t, best) {
			return true
		}
	}

	// Merge the coldest adjacent pair of one cluster range.
	if n > cfg.MinShards {
		best, bestSum := -1, 0.0
		for i := 0; i+1 < n; i++ {
			if t.shards[i].rg != t.shards[i+1].rg {
				continue
			}
			sum := t.heat.Rate(i) + t.heat.Rate(i+1)
			if best < 0 || sum < bestSum {
				best, bestSum = i, sum
			}
		}
		if best >= 0 && bestSum <= mergeFactor*mean {
			return p.mergeShards(t, best)
		}
	}
	return false
}

// adopt finalizes a replacement shard at swap time (omu held): its count,
// pend, and staleness clock are set from its final contents, then every live
// id it holds is claimed in the id table. pend goes first: a SegOf that
// reads the new owner must not find pend still zero and trust the base alone.
func (p *Pool) adopt(c *mshard, pendSince int64) {
	bv := c.base.Load()
	pend := len(c.overSeg) + len(c.tombs)
	c.pend.Store(int64(pend))
	if pend > 0 {
		if pendSince == 0 {
			pendSince = time.Now().UnixNano()
		}
		c.pendSince.Store(pendSince)
	}
	c.version.Add(1)
	var n int64
	for _, it := range bv.tree.PackOrder() {
		if _, dead := c.tombs[it.ID]; dead {
			continue
		}
		p.ids.setOwner(it.ID, c)
		n++
	}
	for id := range c.overSeg {
		if !bv.contains(id) {
			n++
		}
		p.ids.setOwner(id, c)
	}
	c.count.Store(n)
}

// recut is the one repartition primitive: it replaces the nVictims adjacent
// shards starting at shard g of topology t — all of one cluster range — with
// len(newCuts)+1 children of that range, the victims' key span re-cut at
// newCuts, and publishes the t.gen+1 topology. It reports false when it
// cannot proceed (the victims straddle a cluster cut, a freeze is
// outstanding on a victim, newCuts leave a child empty, or t is no longer
// current); every abort after the freeze restores the victims via
// finishCompact, which folds each frozen layer back into a fresh base.
func (p *Pool) recut(t *topology, g, nVictims int, newCuts []uint64) bool {
	if g < 0 || g+nVictims > len(t.shards) {
		return false
	}
	victims := t.shards[g : g+nVictims]
	rg := victims[0].rg
	for _, s := range victims {
		if s.rg != rg {
			return false
		}
	}
	fs := freezeAll(victims, true)
	if fs == nil {
		return false
	}
	abort := func() bool {
		for i, s := range victims {
			s.finishCompact(fs[i])
		}
		return false
	}

	// Rebuild off to the side: no locks held, queries and writes proceed.
	// Child c owns the keys from los[c] up to the next child's Lo.
	los := append([]uint64{t.cuts[g]}, newCuts...)
	childOf := func(mbr geom.Rect) int { return shard.RangeForKey(los, shard.WriteKey(p.q, mbr)) }
	items := make([][]rtree.Item, len(los))
	over := make([]map[uint32]geom.Segment, len(los))
	for c := range over {
		over[c] = map[uint32]geom.Segment{}
	}
	for i, s := range victims {
		folded, fover := mergedItems(s.base.Load(), fs[i])
		for _, it := range folded {
			c := childOf(it.MBR)
			items[c] = append(items[c], it)
			if seg, ok := fover[it.ID]; ok {
				over[c][it.ID] = seg
			}
		}
	}
	children := make([]*mshard, len(los))
	for c := range children {
		if len(items[c]) == 0 && len(newCuts) > 0 {
			return abort() // the cuts separate nothing
		}
		var err error
		if children[c], err = newMShard(p, rg, items[c], over[c]); err != nil {
			p.m.compactErrs.Inc()
			return abort()
		}
	}

	// Swap: under omu (so ownership resolution and the cut table move
	// together) plus the victims' write locks (so the overlays distributed
	// below are final).
	p.omu.Lock()
	if p.topo.Load() != t {
		p.omu.Unlock()
		return abort()
	}
	unlock := lockAll(victims)

	// hide tombstones id's rebuilt base copy in child c, if it has one.
	hide := func(c *mshard, id uint32) {
		if c.base.Load().contains(id) {
			c.tombs[id] = struct{}{}
		}
	}
	// Copy (never move) the overlay written during the rebuild into the
	// children: each live entry goes to the child its key routes to, where
	// it masks any base copy; a pre-move copy rebuilt into ANOTHER child's
	// base is hidden by a tombstone there.
	var pendSince int64
	for _, s := range victims {
		for id, seg := range s.overSeg {
			own := children[childOf(seg.MBR())]
			own.overSeg[id] = seg
			own.delta.Insert(seg.MBR(), id, ops.Null{})
			for _, c := range children {
				if c != own {
					hide(c, id)
				}
			}
		}
		if ps := s.pendSince.Load(); ps > 0 && (pendSince == 0 || ps < pendSince) {
			pendSince = ps
		}
	}
	// Tombstones second: an id deleted in one victim and re-inserted into
	// another during the rebuild is live — in the child holding it the
	// overlay entry alone masks the rebuilt base copy, and skipping the
	// tombstone keeps the overlay and tombstone sets disjoint.
	for _, s := range victims {
		for id := range s.tombs {
			for _, c := range children {
				if _, live := c.overSeg[id]; !live {
					hide(c, id)
				}
			}
		}
	}
	for _, c := range children {
		p.adopt(c, pendSince)
	}

	nt := &topology{gen: t.gen + 1}
	nt.cuts = slices.Concat(t.cuts[:g+1], newCuts, t.cuts[g+nVictims:])
	nt.shards = slices.Concat(t.shards[:g], children, t.shards[g+nVictims:])
	nt.heat = heat.New(len(nt.shards), p.adaptive.HalfLifeSeconds)
	// Heat survives the swap: the children share the victims' rate evenly.
	var rate float64
	for i := range victims {
		rate += t.heat.Rate(g + i)
	}
	for i := range nt.shards {
		switch {
		case i < g:
			nt.heat.Seed(i, t.heat.Rate(i))
		case i < g+len(children):
			nt.heat.Seed(i, rate/float64(len(children)))
		default:
			nt.heat.Seed(i, t.heat.Rate(i-len(children)+nVictims))
		}
	}
	if checkOwners {
		verifyOwnersLocked(p, "recut", nt, victims, children)
	}
	p.topo.Store(nt)

	unlock()
	p.omu.Unlock()
	return true
}

// splitShard splits shard g of topology t at the median Hilbert key of its
// packed base (the contents as of its last fold), publishing a t.gen+1
// topology with one more shard. It reports false when there is no
// separating key or the recut aborts.
func (p *Pool) splitShard(t *topology, g int) bool {
	if g < 0 || g >= len(t.shards) {
		return false
	}
	s := t.shards[g]
	items := s.base.Load().tree.PackOrder()
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = shard.WriteKey(p.q, it.MBR)
	}
	slices.Sort(keys)

	// The cut becomes the right child's Lo: it must strictly separate the
	// sorted keys (both children non-empty) and sit strictly inside the
	// shard's key span, itself inside its cluster range's, so the cut table
	// stays ascending and both children stay in the range. Scan outward from
	// the median for the most balanced valid cut; degenerate contents (all
	// keys equal) have none.
	lo, hi := t.cuts[g], min(hiOf(t.cuts, g), hiOf(p.cuts, s.rg))
	nk := len(keys)
	for d := 0; d < nk; d++ {
		for _, idx := range [2]int{nk/2 - d, nk/2 + d} {
			if idx >= 1 && idx < nk && keys[idx] > keys[idx-1] && keys[idx] > lo && keys[idx] <= hi {
				if !p.recut(t, g, 1, keys[idx:idx+1]) {
					return false
				}
				p.splits.Add(1)
				p.m.splits.Inc()
				return true
			}
		}
	}
	return false
}

// mergeShards merges shards g and g+1 of topology t into one shard,
// publishing a t.gen+1 topology with one fewer shard and the boundary cut
// dropped. Shards of two cluster ranges never merge.
func (p *Pool) mergeShards(t *topology, g int) bool {
	if !p.recut(t, g, 2, nil) {
		return false
	}
	p.merges.Add(1)
	p.m.merges.Inc()
	return true
}
