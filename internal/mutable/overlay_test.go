package mutable

import (
	"fmt"
	"math/rand"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// checkOverlay asserts the overlay's position invariant — every entry's id
// maps to its own slot and the map holds nothing else — and that its
// contents equal the oracle's.
func checkOverlay(t *testing.T, step string, o *overlay, oracle map[uint32]geom.Segment) {
	t.Helper()
	if len(o.at) != len(o.ents) {
		t.Fatalf("%s: %d positions for %d entries", step, len(o.at), len(o.ents))
	}
	for i, e := range o.ents {
		if got := o.at[e.id]; int(got) != i {
			t.Fatalf("%s: at[%d] = %d, want %d", step, e.id, got, i)
		}
		if e.mbr != e.seg.MBR() {
			t.Fatalf("%s: entry %d carries a stale MBR", step, e.id)
		}
	}
	if o.len() != len(oracle) {
		t.Fatalf("%s: %d entries, oracle holds %d", step, o.len(), len(oracle))
	}
	for id, want := range oracle {
		if got, ok := o.get(id); !ok || got != want {
			t.Fatalf("%s: get(%d) = %v %v, want %v", step, id, got, ok, want)
		}
	}
}

// TestOverlayPositions drives put, del and get against a map oracle: the
// swap-remove cases named first, then a seeded random mix over a small id
// space so that re-puts and misses are common.
func TestOverlayPositions(t *testing.T) {
	seg := func(v float64) geom.Segment {
		return geom.Segment{A: geom.Point{X: v, Y: -v}, B: geom.Point{X: v + 1, Y: 2 * v}}
	}
	cases := []struct {
		name string
		dels []uint32
	}{
		{"delete last", []uint32{3}},
		{"delete middle", []uint32{1}},
		{"delete first then last", []uint32{0, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, oracle := newOverlay(), map[uint32]geom.Segment{}
			for id := uint32(0); id < 4; id++ {
				o.put(id, seg(float64(id)))
				oracle[id] = seg(float64(id))
			}
			for _, id := range c.dels {
				if !o.del(id) {
					t.Fatalf("del(%d) missed a present id", id)
				}
				delete(oracle, id)
				checkOverlay(t, fmt.Sprintf("del(%d)", id), &o, oracle)
			}
			// Re-put after delete: the id comes back at the end, once.
			for _, id := range c.dels {
				if o.put(id, seg(10+float64(id))) {
					t.Fatalf("put(%d) after its delete reported it present", id)
				}
				oracle[id] = seg(10 + float64(id))
				checkOverlay(t, fmt.Sprintf("re-put(%d)", id), &o, oracle)
			}
		})
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		o, oracle := newOverlay(), map[uint32]geom.Segment{}
		for i := 0; i < 5000; i++ {
			id := uint32(rng.Intn(40))
			_, had := oracle[id]
			var step string
			switch rng.Intn(3) {
			case 0:
				s := seg(rng.Float64() * 100)
				if got := o.put(id, s); got != had {
					t.Fatalf("op %d: put(%d) = %v, want %v", i, id, got, had)
				}
				oracle[id] = s
				step = fmt.Sprintf("op %d put(%d)", i, id)
			case 1:
				if got := o.del(id); got != had {
					t.Fatalf("op %d: del(%d) = %v, want %v", i, id, got, had)
				}
				delete(oracle, id)
				step = fmt.Sprintf("op %d del(%d)", i, id)
			default:
				if _, ok := o.get(id); ok != had || o.has(id) != had {
					t.Fatalf("op %d: get(%d) present = %v, want %v", i, id, ok, had)
				}
				step = fmt.Sprintf("op %d get(%d)", i, id)
			}
			checkOverlay(t, step, &o, oracle)
		}
	})
}

// BenchmarkOverlay prices the overlay arm of a four-shard PA pool: exact
// 500 m window and point queries at 0, 64 and 256 pending writes (new ids
// spread over the map, as bench/'s overlay rung leaves them), and a warm
// ApplyMove — a pending id moved again by a metre, the moving workload's
// write. Two more cases hold 256 pending writes in the layers the pending
// rows leave empty: moved256 writes dataset ids 100 m off their segments,
// so the base packs masked leaves, and frozen256 freezes every shard over
// the new ids and then moves 40 dataset ids above the frozen layer.
func BenchmarkOverlay(b *testing.B) {
	ds := dataset.PA()
	pts := dataset.PointQueries(ds, 256, 34)
	wins := make([]geom.Rect, len(pts))
	for i, pt := range pts {
		wins[i] = geom.Rect{Min: pt, Max: pt}.Expand(250)
	}
	shifted := func(id uint32) geom.Segment {
		s := ds.Seg(id)
		s.A.X += 100
		s.B.X += 100
		return s
	}
	for _, c := range []struct {
		name          string
		pending       int
		moved, frozen bool
	}{
		{"pending0", 0, false, false},
		{"pending64", 64, false, false},
		{"pending256", 256, false, false},
		{"moved256", 256, true, false},
		{"frozen256", 256, false, true},
	} {
		p, err := NewFromDataset(ds, 4, Config{CompactInterval: -1, CompactMaxAge: -1})
		if err != nil {
			b.Fatal(err)
		}
		wids := make([]uint32, c.pending)
		segs := make([]geom.Segment, c.pending)
		for j := range segs {
			id := uint32(j * (ds.Len() / c.pending))
			wids[j], segs[j] = uint32(ds.Len()+j), ds.Seg(id)
			if c.moved {
				wids[j], segs[j] = id, shifted(id)
			}
			if _, _, _, err := p.ApplyMove(wids[j], segs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if c.frozen {
			for _, s := range p.shards {
				s.freeze()
			}
			for j := 0; j < 40; j++ {
				id := uint32(j*(ds.Len()/40) + 1)
				if _, _, _, err := p.ApplyMove(id, shifted(id)); err != nil {
					b.Fatal(err)
				}
			}
		}
		ids := make([]uint32, 0, 4096)
		b.Run(c.name+"/RangeAppend", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids = p.RangeAppend(ids[:0], wins[i%len(wins)])
			}
		})
		b.Run(c.name+"/PointAppend", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids = p.PointAppend(ids[:0], pts[i%len(pts)], proto.DefaultPointEps)
			}
		})
		if c.pending > 0 && !c.frozen {
			b.Run(c.name+"/ApplyMove", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i % c.pending
					s := segs[j]
					if (i/c.pending)%2 == 1 {
						s.A.X++
						s.B.X++
					}
					p.ApplyMove(wids[j], s)
				}
			})
		}
		p.Close()
	}
}
