package mutable

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// FuzzFoldMatchesKeySort pins the fold's pack order: a fold's leaves are a
// stable sort, by key under the pool's quantizer, of the surviving base
// leaves in pack order followed by the frozen overlay's items in id order.
// The writes decoded from the input move held ids onto a coarse grid of
// shared centroids (tie-heavy keys), off the map (keys that clamp), delete
// them, re-insert ids at their first segments, and insert ids above the
// dense table; a fold of every shard may come mid-stream, so later folds
// merge into bases an earlier fold packed.
func FuzzFoldMatchesKeySort(f *testing.F) {
	f.Add([]byte{0, 1, 0, 7, 1, 2, 0, 9, 2, 3, 0, 0, 3, 3, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{0, 5, 0, 1, 0, 6, 0, 1, 0, 7, 0, 1, 0, 8, 0, 1})
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ds := tiedDataset(400)
		p, err := NewFromDataset(ds, 3, Config{CompactInterval: -1, CompactMaxAge: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ext := ds.Extent
		// A grid segment centres on one of the base's shared centroids.
		grid := func(b byte) geom.Segment {
			c := geom.Point{X: float64(b%6) * tiedPitch, Y: float64(b/6%6) * tiedPitch}
			d := float64(1 + b/36%4)
			return geom.Segment{A: geom.Point{X: c.X - d, Y: c.Y}, B: geom.Point{X: c.X + d, Y: c.Y}}
		}
		n := uint32(ds.Len())
		for i := 0; i+4 <= len(raw) && i < 4*2000; i += 4 {
			id := (uint32(raw[i+1]) | uint32(raw[i+2])<<8) % (n + 40)
			var err error
			switch raw[i] % 6 {
			case 0, 1:
				_, _, _, err = p.ApplyMove(id, grid(raw[i+3]))
			case 2:
				// Off the map: the key clamps to the frame's edge.
				off := geom.Point{X: ext.Max.X + 1e4*float64(raw[i+3]%3), Y: ext.Min.Y - 1e4*float64(raw[i+3]/3%3)}
				_, _, _, err = p.ApplyMove(id, geom.Segment{A: off, B: geom.Point{X: off.X + 5, Y: off.Y + 5}})
			case 3:
				_, _, _, err = p.ApplyDelete(id)
			case 4:
				if id < n {
					_, _, _, err = p.ApplyMove(id, ds.Seg(id))
				}
			case 5:
				if raw[i+3]%4 == 0 {
					foldMatchesKeySort(t, p)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		foldMatchesKeySort(t, p)
	})
}

// foldMatchesKeySort folds every shard with pending writes and checks each
// new base against the reference order.
func foldMatchesKeySort(t *testing.T, p *Pool) {
	t.Helper()
	key := func(it rtree.Item) uint64 { return shard.WriteKey(p.q, it.MBR) }
	for i, s := range p.shards {
		f := s.freeze()
		if f == nil {
			continue
		}
		var want []rtree.Item
		for _, it := range s.base.Load().tree.PackOrder() {
			if _, dead := f.tombs[it.ID]; !dead && !f.segs.has(it.ID) {
				want = append(want, it)
			}
		}
		var over []rtree.Item
		for _, e := range f.segs.ents {
			over = append(over, rtree.SegItem(e.seg, e.id))
		}
		slices.SortFunc(over, func(a, b rtree.Item) int { return cmp.Compare(a.ID, b.ID) })
		want = append(want, over...)
		slices.SortStableFunc(want, func(a, b rtree.Item) int { return cmp.Compare(key(a), key(b)) })

		if !s.finishCompact(f) {
			t.Fatalf("shard %d: fold failed", i)
		}
		got := s.base.Load().tree.PackOrder()
		if len(got) != len(want) {
			t.Fatalf("shard %d: fold packs %d leaves, reference %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("shard %d leaf %d: fold packs id %d (key %d), reference id %d (key %d)",
					i, j, got[j].ID, key(got[j]), want[j].ID, key(want[j]))
			}
		}
	}
}

// tiedPitch spaces tiedDataset's grid.
const tiedPitch = 300

// tiedDataset is n segments whose centroids crowd onto a 6×6 grid: crossing
// pairs and repeats share a centroid, so most keys are tied.
func tiedDataset(n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(3))
	segs := make([]geom.Segment, 0, n)
	for len(segs) < n {
		c := geom.Point{X: float64(rng.Intn(6)) * tiedPitch, Y: float64(rng.Intn(6)) * tiedPitch}
		d := float64(1 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			segs = append(segs, geom.Segment{A: geom.Point{X: c.X - d, Y: c.Y}, B: geom.Point{X: c.X + d, Y: c.Y}})
		} else {
			segs = append(segs, geom.Segment{A: geom.Point{X: c.X, Y: c.Y - d}, B: geom.Point{X: c.X, Y: c.Y + d}})
		}
	}
	ext := geom.EmptyRect()
	for _, s := range segs {
		ext = ext.Union(s.MBR())
	}
	return &dataset.Dataset{Name: "tied", Segments: segs, RecordBytes: 32, Extent: ext}
}
