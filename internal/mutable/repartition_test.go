package mutable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/shard"
)

// adaptiveTestPool is testPool with the repartitioner armed but its
// background loop disabled — tests drive RepartitionOnce / splitShard /
// mergeShards directly for determinism.
func adaptiveTestPool(t *testing.T, n, shards int) *Pool {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, n)
	p, err := NewFromDataset(ds, shards, Config{
		CompactInterval: -1,
		Adaptive:        AdaptiveConfig{Enabled: true, Interval: -1, MinShardItems: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// checkShardRanges holds p's topology to its invariant: one strictly
// ascending Lo key per shard, and each shard sitting in the cluster range
// its Lo keys into.
func checkShardRanges(t *testing.T, p *Pool) bool {
	t.Helper()
	tp := p.topo.Load()
	if len(tp.cuts) != len(tp.shards) {
		t.Errorf("topology has %d cuts for %d shards", len(tp.cuts), len(tp.shards))
		return false
	}
	for i, s := range tp.shards {
		if i > 0 && tp.cuts[i] <= tp.cuts[i-1] {
			t.Errorf("local cuts not strictly ascending at %d", i)
			return false
		}
		if g := shard.RangeForKey(p.cuts, tp.cuts[i]); s.rg != g {
			t.Errorf("shard %d sits in cluster range %d, its Lo keys into %d", i, s.rg, g)
			return false
		}
	}
	return true
}

// TestRepartitionOnceSplitsHotShard drives the heat-driven decision end to
// end: a single-shard pool under query traffic must split (n == 1 splits on
// any heat at all), bump the topology generation, and keep answering
// correctly; a direct merge folds it back.
func TestRepartitionOnceSplitsHotShard(t *testing.T) {
	p := adaptiveTestPool(t, 2000, 1)
	ds := p.Dataset()

	if p.RepartitionOnce() {
		t.Fatal("pool repartitioned with zero traffic")
	}
	v0 := p.Version(0)

	// Heat the lone shard and tick until the fold window admits the rate.
	// The first RepartitionOnce only arms the EWMA clock (Fold's first call
	// records a baseline without decaying), so the loop ticks repeatedly.
	hot := ds.Seg(0).MBR()
	ids := make([]uint32, 0, 256)
	deadline := time.Now().Add(15 * time.Second)
	for p.Splits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot shard never split")
		}
		for i := 0; i < 200; i++ {
			ids = p.RangeAppend(ids[:0], hot)
		}
		p.RepartitionOnce()
		time.Sleep(20 * time.Millisecond)
	}
	if got := p.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d after split, want 2", got)
	}
	if p.Gen() != 1 || p.Splits() != 1 {
		t.Fatalf("gen=%d splits=%d after one split, want 1/1", p.Gen(), p.Splits())
	}
	// The generation prefix must make every pre-split version stale.
	if v := p.Version(0); v>>versGenShift != 1 || v == v0 {
		t.Fatalf("post-split Version(0) = %#x (gen %d); want gen 1, != pre-split %#x",
			v, v>>versGenShift, v0)
	}
	// The split is local: the pool still advertises its one cluster range,
	// and the children's inherited heat folds into that row.
	rows, num := p.SummaryRanges(nil)
	if num != 1 || len(rows) != 1 {
		t.Fatalf("SummaryRanges after split = %d rows of %d, want 1 of 1", len(rows), num)
	}
	if rows[0].Heat <= 0 {
		t.Fatalf("children inherited no heat (%v)", rows[0].Heat)
	}
	checkShardRanges(t, p)

	model := make(map[uint32]geom.Segment, ds.Len())
	for id := 0; id < ds.Len(); id++ {
		model[uint32(id)] = ds.Seg(uint32(id))
	}
	rng := rand.New(rand.NewSource(3))
	if !agreesWithFresh(t, 0, rng, p, model, ds) {
		t.Fatal("post-split answers diverge from fresh build")
	}

	if !p.mergeShards(p.topo.Load(), 0) {
		t.Fatal("merge of the split pair failed")
	}
	if got := p.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d after merge, want 1", got)
	}
	if p.Gen() != 2 || p.Merges() != 1 {
		t.Fatalf("gen=%d merges=%d after the merge, want 2/1", p.Gen(), p.Merges())
	}
	if !agreesWithFresh(t, 0, rng, p, model, ds) {
		t.Fatal("post-merge answers diverge from fresh build")
	}
}

// TestRepartitionEquivalenceQuick is the adaptive ≡ static property: any
// random interleaving of writes, compactions, splits, and merges must leave
// the pool agreeing with a from-scratch packed build of the final item set.
// Splits and merges are forced directly (not heat-gated) so every run
// actually reshapes the topology, including mid-overlay and mid-freeze.
func TestRepartitionEquivalenceQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 30+rng.Intn(170))

		p, err := NewFromDataset(ds, 1+rng.Intn(4), Config{
			CompactInterval: -1,
			Adaptive:        AdaptiveConfig{Enabled: true, Interval: -1, MinShardItems: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		model := make(map[uint32]geom.Segment, ds.Len())
		for id := 0; id < ds.Len(); id++ {
			model[uint32(id)] = ds.Seg(uint32(id))
		}
		maxID := uint32(ds.Len() + 48)

		nops := 60 + rng.Intn(240)
		for op := 0; op < nops; op++ {
			id := uint32(rng.Intn(int(maxID)))
			switch rng.Intn(5) {
			case 0: // insert (possibly upsert)
				seg := randomSeg(rng, ds.Extent)
				if _, _, owned, err := p.ApplyInsert(id, seg); err != nil || !owned {
					t.Errorf("seed %d: insert(%d): owned=%v err=%v", seed, id, owned, err)
					return false
				}
				model[id] = seg
			case 1: // delete
				if _, existed, _, err := p.ApplyDelete(id); err != nil {
					t.Errorf("seed %d: delete(%d): %v", seed, id, err)
					return false
				} else if _, had := model[id]; existed != had {
					t.Errorf("seed %d: delete(%d) existed=%v, model had=%v", seed, id, existed, had)
					return false
				}
				delete(model, id)
			case 2: // move
				seg := randomSeg(rng, ds.Extent)
				if _, _, owned, err := p.ApplyMove(id, seg); err != nil || !owned {
					t.Errorf("seed %d: move(%d): owned=%v err=%v", seed, id, owned, err)
					return false
				}
				model[id] = seg
			case 3: // compaction events
				switch rng.Intn(3) {
				case 0:
					p.ForceCompact()
				case 1:
					p.CompactShard(rng.Intn(p.NumShards()))
				case 2:
					s := p.topo.Load().shards[rng.Intn(p.NumShards())]
					if f := s.freeze(); f != nil {
						if !agreesWithFresh(t, seed, rng, p, model, ds) {
							return false
						}
						s.finishCompact(f)
					}
				}
			case 4: // repartition events
				tp := p.topo.Load()
				if rng.Intn(2) == 0 {
					p.splitShard(tp, rng.Intn(len(tp.shards)))
				} else if len(tp.shards) >= 2 {
					p.mergeShards(tp, rng.Intn(len(tp.shards)-1))
				}
				// The topology must stay internally consistent whether or
				// not the repartition committed.
				if !checkShardRanges(t, p) {
					return false
				}
			}
			if p.Len() != len(model) {
				t.Errorf("seed %d: op %d: Len=%d, model=%d", seed, op, p.Len(), len(model))
				return false
			}
			if op%29 == 0 && !agreesWithFresh(t, seed, rng, p, model, ds) {
				return false
			}
		}

		p.ForceCompact()
		for i := 0; i < p.NumShards(); i++ {
			if p.Pending(i) != 0 {
				t.Errorf("seed %d: shard %d pending %d after ForceCompact", seed, i, p.Pending(i))
				return false
			}
		}
		for id, seg := range model {
			if got := p.SegOf(id); got != seg {
				t.Errorf("seed %d: SegOf(%d) = %v, model %v", seed, id, got, seg)
				return false
			}
		}
		return agreesWithFresh(t, seed, rng, p, model, ds)
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionWarmReadZeroAlloc: the warm read path's zero-alloc
// discipline must survive topology swaps — a split or merge publishes new
// shards, and queries through the new topology must still allocate nothing.
func TestRepartitionWarmReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := adaptiveTestPool(t, 1500, 2)
	measureQueries(t, "before split", p, 0)

	tp := p.topo.Load()
	if !p.splitShard(tp, 0) && !p.splitShard(p.topo.Load(), 1) {
		t.Fatal("neither shard split")
	}
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d after split, want 3", p.NumShards())
	}
	measureQueries(t, "across split", p, 0)

	if !p.mergeShards(p.topo.Load(), 0) {
		t.Fatal("merge failed")
	}
	if p.NumShards() != 2 {
		t.Fatalf("NumShards = %d after merge, want 2", p.NumShards())
	}
	measureQueries(t, "across merge", p, 0)
}

// TestRepartitionSoak races the full cast: writers, readers, the background
// compactor, the background repartitioner, AND forced splits/merges, all
// concurrently. Under -race this is the repartitioner's memory-model check;
// under the plain runtime it verifies no acknowledged write is lost across
// any number of topology swaps (each writer owns a disjoint id set, so the
// final pool must hold exactly the union of the writers' final states).
func TestRepartitionSoak(t *testing.T) {
	checkOwners = true
	defer func() { checkOwners = false }()
	rng := rand.New(rand.NewSource(43))
	ds := randomDataset(rng, 800)
	p, err := NewFromDataset(ds, 4, Config{
		CompactInterval:  2 * time.Millisecond,
		compactThreshold: 32,
		Adaptive: AdaptiveConfig{
			Enabled:       true,
			Interval:      3 * time.Millisecond,
			MinShardItems: 8,
			MaxShards:     16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	deadline := time.Now().Add(dur)

	const writers = 4
	const perWriter = 64
	base := uint32(ds.Len())
	finals := make([]map[uint32]geom.Segment, writers)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			final := make(map[uint32]geom.Segment)
			for id := 0; id < ds.Len(); id++ {
				if id%writers == w {
					final[uint32(id)] = ds.Seg(uint32(id))
				}
			}
			for time.Now().Before(deadline) {
				var id uint32
				if wrng.Intn(2) == 0 {
					id = base + uint32(w*perWriter+wrng.Intn(perWriter))
				} else {
					id = uint32(wrng.Intn(ds.Len()/writers))*writers + uint32(w)
					if int(id) >= ds.Len() {
						continue
					}
				}
				switch wrng.Intn(4) {
				case 0:
					seg := randomSeg(wrng, ds.Extent)
					if _, _, _, err := p.ApplyInsert(id, seg); err != nil {
						t.Error(err)
						return
					}
					final[id] = seg
				case 1:
					if _, _, _, err := p.ApplyDelete(id); err != nil {
						t.Error(err)
						return
					}
					delete(final, id)
				default:
					seg := randomSeg(wrng, ds.Extent)
					if _, _, _, err := p.ApplyMove(id, seg); err != nil {
						t.Error(err)
						return
					}
					final[id] = seg
				}
			}
			finals[w] = final
		}()
	}

	const readers = 3
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(200 + r)))
			ids := make([]uint32, 0, 2048)
			for time.Now().Before(deadline) {
				w := randomWindow(rrng, ds.Extent)
				ids = p.RangeAppend(ids[:0], w)
				seen := make(map[uint32]bool, len(ids))
				for _, id := range ids {
					if seen[id] {
						t.Errorf("range answer contains id %d twice", id)
						return
					}
					seen[id] = true
				}
				pt := geom.Point{
					X: ds.Extent.Min.X + rrng.Float64()*(ds.Extent.Max.X-ds.Extent.Min.X),
					Y: ds.Extent.Min.Y + rrng.Float64()*(ds.Extent.Max.Y-ds.Extent.Min.Y),
				}
				p.NearestWith(pt, nil)
				p.KNearestAppend(nil, pt, 5, nil)
				ids = p.PointAppend(ids[:0], pt, 2.0)
			}
		}()
	}

	// On top of the background repartitioner's heat-driven ticks, force
	// splits and merges directly so every soak run actually swaps topology
	// many times, not just when the heat happens to qualify.
	wg.Add(1)
	go func() {
		defer wg.Done()
		srng := rand.New(rand.NewSource(300))
		for time.Now().Before(deadline) {
			tp := p.topo.Load()
			if n := len(tp.shards); n > 1 && srng.Intn(2) == 0 {
				p.mergeShards(tp, srng.Intn(n-1))
			} else {
				p.splitShard(tp, srng.Intn(n))
			}
			p.ForceCompact()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	p.ForceCompact()
	model := make(map[uint32]geom.Segment)
	for _, final := range finals {
		for id, seg := range final {
			model[id] = seg
		}
	}
	if p.Len() != len(model) {
		t.Fatalf("pool holds %d objects after %d splits / %d merges, writers' union is %d",
			p.Len(), p.Splits(), p.Merges(), len(model))
	}
	for id, seg := range model {
		if got := p.SegOf(id); got != seg {
			t.Fatalf("id %d: pool has %v, final state %v", id, got, seg)
		}
	}
	full := geom.Rect{
		Min: geom.Point{X: ds.Extent.Min.X - 200, Y: ds.Extent.Min.Y - 200},
		Max: geom.Point{X: ds.Extent.Max.X + 200, Y: ds.Extent.Max.Y + 200},
	}
	got := p.FilterRangeAppend(nil, full)
	if len(got) != len(model) {
		// All workers have quit, so the per-shard maps are safe to read.
		gotSet := make(map[uint32]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		for id := range model {
			if gotSet[id] {
				continue
			}
			sh := p.ids.owner(id)
			if sh == nil {
				t.Logf("missing id %d: no owner in the id table", id)
				continue
			}
			t.Logf("missing id %d:%s", id, ownerIDState("owner", sh, id))
		}
		t.Fatalf("full-extent candidates: %d, want %d (splits %d merges %d shards %d)",
			len(got), len(model), p.Splits(), p.Merges(), p.NumShards())
	}
	if p.Splits() == 0 {
		t.Fatal("soak ran without a single split; repartition coverage lost")
	}
}
