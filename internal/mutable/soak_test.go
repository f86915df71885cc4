package mutable

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/geom"
)

// TestUpdateSoak races query goroutines against writer goroutines and the
// background compactor's epoch swaps. Run under -race this is the update
// subsystem's memory-model check; under the plain runtime it is a
// linearizability smoke: each writer owns a disjoint id set, so after the
// dust settles the pool must hold exactly the union of the writers' final
// states.
func TestUpdateSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := randomDataset(rng, 800)
	p, err := NewFromDataset(ds, 4, Config{
		CompactInterval:  2 * time.Millisecond,
		compactThreshold: 32,
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
			// Writer w owns fresh ids [base+w*perWriter, base+(w+1)*perWriter)
			// and the original ids congruent to w mod writers.
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
					if _, _, _, err := p.ApplyMove(id, seg); err != nil {
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

	const readers = 4
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

	// One goroutine hammers explicit compactions on top of the background
	// compactor, so freeze/swap overlaps with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			p.ForceCompact()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce and verify the pool holds exactly the union of the writers'
	// final states — ids, count, and geometry.
	p.ForceCompact()
	model := make(map[uint32]geom.Segment)
	for _, final := range finals {
		for id, seg := range final {
			model[id] = seg
		}
	}
	if p.Len() != len(model) {
		t.Fatalf("pool holds %d objects, writers' union is %d", p.Len(), len(model))
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
		t.Fatalf("full-extent candidates: %d, want %d", len(got), len(model))
	}
	for _, id := range got {
		if _, ok := model[id]; !ok {
			t.Fatalf("pool surfaced id %d not in any writer's final state", id)
		}
	}
}
