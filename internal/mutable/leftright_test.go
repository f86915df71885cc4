package mutable

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// TestDirtyReadsNeverWaitForWriter: with every shard holding a frozen layer
// and a live overlay above it, and every shard's writer lock held, each
// query kind — filter and exact range and point, 1-NN, k-NN, bounded k-NN —
// SegOf of ids in either layer, and the pool's extent still return, and
// equal the flat ledger of the writes. A read that parked on its shard's
// lock against a writer would stall until the deadline.
func TestDirtyReadsNeverWaitForWriter(t *testing.T) {
	const seed = 43
	rng := rand.New(rand.NewSource(seed))
	ds := randomDataset(rng, 600)
	p, err := NewFromDataset(ds, 4, Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	model := make(map[uint32]geom.Segment, ds.Len())
	for id := 0; id < ds.Len(); id++ {
		model[uint32(id)] = ds.Seg(uint32(id))
	}
	write := func(n int) []uint32 {
		var moved []uint32
		for i := 0; i < n; i++ {
			id := uint32(rng.Intn(ds.Len() + 40))
			if rng.Intn(4) == 0 {
				p.ApplyDelete(id)
				delete(model, id)
				continue
			}
			seg := randomSeg(rng, ds.Extent)
			if _, _, _, err := p.ApplyMove(id, seg); err != nil {
				t.Fatal(err)
			}
			model[id] = seg
			moved = append(moved, id)
		}
		return moved
	}

	frozenIDs := write(160)
	for i, s := range p.shards {
		if s.freeze() == nil {
			t.Fatalf("shard %d has no frozen layer", i)
		}
	}
	liveIDs := write(60)
	for i := range p.shards {
		if p.Pending(i) == 0 {
			t.Fatalf("shard %d is clean", i)
		}
	}

	for _, s := range p.shards {
		s.mu.Lock()
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for _, id := range append(frozenIDs, liveIDs...) {
			want := model[id] // the zero segment for a deleted id
			if got := p.SegOf(id); got != want {
				t.Errorf("SegOf(%d) = %v, want %v", id, got, want)
			}
		}
		ext := p.Bounds()
		for id, seg := range model {
			if !ext.ContainsRect(seg.MBR()) {
				t.Errorf("Bounds %v leaves out id %d at %v", ext, id, seg)
				break
			}
		}
		qrng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			if !agreesWithFresh(t, seed, qrng, p, model, ds) {
				return
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Error("a read of a shard with pending writes waited for the shard's writer")
	}
	for _, s := range p.shards {
		s.mu.Unlock()
	}
	<-finished
}

// TestLeftRightCopiesStayWhole drives one shard's pair directly: readers
// that enter it check that the copy they were handed is whole — each
// overlay entry at the slot its map names, no id both live and tombstoned —
// while a writer publishes upserts, removes, freezes and swaps as fast as it
// can. A writer that changed a copy a reader was still on breaks the check,
// trips the runtime's concurrent map access check, or, under -race, is
// reported as a race.
func TestLeftRightCopiesStayWhole(t *testing.T) {
	p, ds := testPool(t, 400, 1)
	s, ext := p.shards[0], ds.Extent
	whole := func(l *layers) string {
		for _, o := range []*overlay{&l.segs, frozenSegs(l)} {
			if len(o.ents) != len(o.at) {
				return fmt.Sprintf("%d entries, %d slots", len(o.ents), len(o.at))
			}
			for i, e := range o.ents {
				if j, ok := o.at[e.id]; !ok || int(j) != i {
					return fmt.Sprintf("entry %d (id %d) indexed at %d, %v", i, e.id, j, ok)
				}
			}
		}
		for id := range l.tombs {
			if l.segs.has(id) {
				return fmt.Sprintf("id %d is live and tombstoned", id)
			}
		}
		return ""
	}

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				l, tk := s.lr.enter()
				msg := whole(l)
				s.lr.leave(tk)
				if msg != "" {
					t.Error(msg)
					return
				}
				reads.Add(1)
				// Readers that never block would leave the writer a
				// processor only at preemption.
				runtime.Gosched()
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	writes := 20_000
	if testing.Short() {
		writes = 2_000
	}
	for w := 1; w <= writes || reads.Load() < int64(writes); w++ {
		id := uint32(rng.Intn(ds.Len() + 64))
		switch {
		case w%500 == 0:
			s.compact()
		case rng.Intn(4) == 0:
			p.ApplyDelete(id)
		default:
			p.ApplyMove(id, randomSeg(rng, ext))
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d whole reads over %d writes", reads.Load(), writes)
}

// frozenSegs is l's frozen overlay, an empty one when there is none.
func frozenSegs(l *layers) *overlay {
	if l.frozen == nil {
		return &overlay{}
	}
	return &l.frozen.segs
}

// BenchmarkOverlayReadsUnderWrites prices reads of dirty shards while their
// writer is busy: parallel goroutines cycle exact range, point and 8-NN
// queries over a four-shard PA pool whose overlays hold 256 written ids,
// and one of them is also the mover — before each of its reads it moves one
// of 64 of those ids by a metre and back, the moving workload's fleet. The
// mover shares the loop with the readers rather than running beside it, so
// that both sides of a comparison make the same writes: a goroutine of its
// own would get a processor only when a reader parked. moves/op is writes
// per read.
func BenchmarkOverlayReadsUnderWrites(b *testing.B) {
	ds := dataset.PA()
	p, err := NewFromDataset(ds, 4, Config{CompactInterval: -1, CompactMaxAge: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const pending, fleet = 256, 64
	segs := make([]geom.Segment, pending)
	for j := range segs {
		segs[j] = ds.Seg(uint32(j * (ds.Len() / pending)))
		if _, _, _, err := p.ApplyMove(uint32(ds.Len()+j), segs[j]); err != nil {
			b.Fatal(err)
		}
	}
	pts := dataset.PointQueries(ds, 256, 34)
	wins := make([]geom.Rect, len(pts))
	for i, pt := range pts {
		wins[i] = geom.Rect{Min: pt, Max: pt}.Expand(250)
	}

	var next, goroutines, moves atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mover := goroutines.Add(1) == 1
		ids := make([]uint32, 0, 4096)
		nbs := make([]rtree.Neighbor, 0, 8)
		m := 0
		for pb.Next() {
			if mover {
				j := m % fleet
				s := segs[j]
				if (m/fleet)%2 == 1 {
					s.A.X++
					s.B.X++
				}
				p.ApplyMove(uint32(ds.Len()+j), s)
				m++
			}
			i := int(next.Add(1))
			switch q := i % len(pts); i % 3 {
			case 0:
				ids = p.RangeAppend(ids[:0], wins[q])
			case 1:
				ids = p.PointAppend(ids[:0], pts[q], proto.DefaultPointEps)
			default:
				nbs, _ = p.KNearestAppend(nbs[:0], pts[q], 8, nil)
			}
		}
		if mover {
			moves.Add(int64(m))
		}
	})
	b.ReportMetric(float64(moves.Load())/float64(b.N), "moves/op")
}
