package shard

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/rtree"
)

func fixture(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.NYCConfig()
	cfg.NumSegments = n
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := fixture(t, 2000)
	p, err := New(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() != DefaultShards {
		t.Errorf("Shards() = %d, want %d", p.Shards(), DefaultShards)
	}
	if p.Workers() < 1 {
		t.Error("no workers")
	}
}

// TestPartitionComplete: the shards partition the item set — every id appears
// in exactly one shard, and the totals line up.
func TestPartitionComplete(t *testing.T) {
	ds := fixture(t, 3000)
	p, err := New(ds, Config{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.Len() != ds.Len() {
		t.Fatalf("Len() = %d, want %d", p.Len(), ds.Len())
	}
	if p.Shards() != 7 {
		t.Fatalf("Shards() = %d, want 7", p.Shards())
	}
	total := 0
	for i, tree := range p.trees {
		st := tree.TreeStats()
		if st.Items == 0 {
			t.Errorf("shard %d is empty", i)
		}
		if st.IndexBytes <= 0 || st.Height < 1 {
			t.Errorf("shard %d: bad stats %+v", i, st)
		}
		total += st.Items
	}
	if total != ds.Len() {
		t.Fatalf("per-shard items sum to %d, want %d", total, ds.Len())
	}

	// Every id retrievable: a whole-extent range filter returns each id once.
	ids := p.FilterRangeAppend(nil, p.Bounds())
	if len(ids) != ds.Len() {
		t.Fatalf("whole-extent filter returned %d ids, want %d", len(ids), ds.Len())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if id != uint32(i) {
			t.Fatalf("ids[%d] = %d: duplicate or missing id", i, id)
		}
	}
}

// TestShardClamp: more shards than items clamps to one item per shard.
func TestShardClamp(t *testing.T) {
	ds := fixture(t, 5)
	p, err := New(ds, Config{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5 (clamped to item count)", p.Shards())
	}
	if p.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", p.Len())
	}
}

// TestEmptyDataset: a dataset with no segments yields a working zero-shard
// pool whose queries all come back empty.
func TestEmptyDataset(t *testing.T) {
	ds := &dataset.Dataset{Name: "empty", RecordBytes: 32}
	p, err := New(ds, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() != 0 || p.Len() != 0 {
		t.Fatalf("Shards() = %d Len() = %d, want 0, 0", p.Shards(), p.Len())
	}
	if got := p.RangeAppend(nil, p.Bounds()); len(got) != 0 {
		t.Errorf("Range on empty pool returned %d ids", len(got))
	}
	if res := p.NearestWith(geom.Point{}, nil); res.OK {
		t.Error("Nearest on empty pool reported a hit")
	}
	if nbs, ok := p.KNearestAppend(nil, geom.Point{}, 3, nil); !ok || len(nbs) != 0 {
		t.Errorf("KNearest on empty pool = %d, %v", len(nbs), ok)
	}
}

// TestMetrics: the fan-out/pruning counters move and the gauge describes the
// pool.
func TestMetrics(t *testing.T) {
	ds := fixture(t, 4000)
	reg := obs.NewRegistry()
	p, err := New(ds, Config{Shards: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.RangeAppend(nil, p.Bounds())             // walks all 8 shards
	p.PointAppend(nil, ds.Seg(0).A, 2.0)       // usually 1 shard
	p.NearestWith(ds.Seg(1).A, nil)            // NN visit
	p.KNearestAppend(nil, ds.Seg(2).B, 4, nil) // k-NN visit
	snap := reg.Snapshot()

	got := map[string]float64{}
	for _, c := range snap.Counters {
		got[c.Name] = float64(c.Value)
	}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	for _, name := range []string{
		"shard_count", "shard_fanout_shards_total", "shard_nn_total",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if got["shard_count"] != 8 {
		t.Errorf("shard_count = %v, want 8", got["shard_count"])
	}
	if got["shard_fanout_shards_total"] < 8 {
		t.Errorf("shard_fanout_shards_total = %v, want >= 8 after whole-extent query", got["shard_fanout_shards_total"])
	}
	if got["shard_nn_total"] != 2 {
		t.Errorf("shard_nn_total = %v, want 2", got["shard_nn_total"])
	}
	if got["shard_inline_total"] != 2 {
		t.Errorf("shard_inline_total = %v, want 2 range/point queries", got["shard_inline_total"])
	}
	if v := got["shard_nn_shards_visited_total"] + got["shard_nn_shards_pruned_total"]; v != 16 {
		t.Errorf("nn visited+pruned = %v, want 2 queries x 8 shards = 16", v)
	}
}

func sameIDSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint32(nil), a...)
	bs := append([]uint32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestNewBuildsAlikeAtAnyWidth: the shard trees New builds side by side,
// each over a sort that splits across goroutines, are the trees one
// goroutine builds: on PA at GOMAXPROCS 1 and 4, the same cuts, and every
// shard the same pack order and bounds.
func TestNewBuildsAlikeAtAnyWidth(t *testing.T) {
	ds := dataset.PA()
	type built struct {
		ranges []Range
		pool   *Pool
	}
	build := func(procs int) built {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ranges, _ := PartitionHilbert(ds.Items(), 3, 0)
		p, err := New(ds, Config{Shards: 16})
		if err != nil {
			t.Fatal(err)
		}
		return built{ranges, p}
	}
	one, four := build(1), build(4)
	for i := range one.ranges {
		a, b := one.ranges[i], four.ranges[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || len(a.Items) != len(b.Items) || a.MBR != b.MBR {
			t.Errorf("range %d: [%d, %d] %d items at GOMAXPROCS 1, [%d, %d] %d at 4", i, a.Lo, a.Hi, len(a.Items), b.Lo, b.Hi, len(b.Items))
		}
	}
	if one.pool.Shards() != four.pool.Shards() {
		t.Fatalf("%d shards at GOMAXPROCS 1, %d at 4", one.pool.Shards(), four.pool.Shards())
	}
	for i, tr := range one.pool.trees {
		if !slices.Equal(tr.PackOrder(), four.pool.trees[i].PackOrder()) || one.pool.mbrs[i] != four.pool.mbrs[i] {
			t.Errorf("shard %d packs differently at GOMAXPROCS 1 and 4", i)
		}
	}
}

// TestShardTreesPackedAsCut: New packs each shard tree from its cut run in
// the order the cut left it, so the pool's leaves in shard order are
// PartitionHilbert's order of the items it indexes: over the whole map, and
// over a held subset (Config.Items), which the cut sorts in the subset's
// frame.
func TestShardTreesPackedAsCut(t *testing.T) {
	ds := dataset.NYC()
	whole := ds.Items()
	for _, held := range [][]rtree.Item{nil, whole[len(whole)/3:]} {
		p, err := New(ds, Config{Shards: 16, Items: slices.Clone(held)})
		if err != nil {
			t.Fatal(err)
		}
		cut := held
		if cut == nil {
			cut = whole
		}
		runs, _ := PartitionHilbert(slices.Clone(cut), 16, 0)
		if len(p.trees) != len(runs) {
			t.Fatalf("%d of %d items: %d shards, %d cut runs", len(cut), len(whole), len(p.trees), len(runs))
		}
		for i, tr := range p.trees {
			if !slices.Equal(tr.PackOrder(), runs[i].Items) {
				t.Errorf("%d of %d items: shard %d's leaves are not cut run %d in cut order", len(cut), len(whole), i, i)
			}
		}
	}
}
