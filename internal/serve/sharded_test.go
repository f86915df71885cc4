package serve

import (
	"sort"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// TestShardedServeMatchesMonolithic runs the same client workload against a
// sharded server and a monolithic server and requires identical answers end
// to end: same id sets for range/point, same neighbor distances for NN/k-NN.
func TestShardedServeMatchesMonolithic(t *testing.T) {
	ds, _, _, monoAddr := testWorld(t, nil)
	_, _, _, shAddr := testWorldSharded(t, 8, nil)
	mc := newClient(t, monoAddr, 2)
	sc := newClient(t, shAddr, 2)

	center := ds.Extent.Center()
	windows := []geom.Rect{
		{Min: geom.Point{X: center.X - 300, Y: center.Y - 300}, Max: geom.Point{X: center.X + 300, Y: center.Y + 300}},
		{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 12000, Y: 9000}},
		ds.Extent, // full extent: fans out to every shard
		{Min: geom.Point{X: -900, Y: -900}, Max: geom.Point{X: -100, Y: -100}}, // off-map: empty
	}
	for _, w := range windows {
		a, err := mc.RangeIDs(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.RangeIDs(w)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDSets(a, b) {
			t.Fatalf("RangeIDs(%v): monolithic %d ids, sharded %d ids", w, len(a), len(b))
		}
	}

	for i := 0; i < 8; i++ {
		pt := ds.Seg(uint32(i * 997)).A
		a, err := mc.PointIDs(pt, DefaultPointEps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.PointIDs(pt, DefaultPointEps)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDSets(a, b) {
			t.Fatalf("PointIDs(%v): monolithic %v, sharded %v", pt, a, b)
		}

		off := geom.Point{X: pt.X + 35, Y: pt.Y - 20}
		ra, err := mc.KNearest(off, 5)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sc.KNearest(off, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("KNearest(%v): monolithic %d, sharded %d neighbors", off, len(ra), len(rb))
		}
	}
}

// TestShardedExecuteQueryZeroAlloc extends the hot-path allocation contract
// to the sharded executor: warm range, point, and k-NN queries through
// executeQuery, in every mode, must not allocate even when they walk many
// shards.
func TestShardedExecuteQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, srv, _ := testWorldSharded(t, 8, nil)
	center := ds.Extent.Center()
	wide := geom.Rect{ // spans many shards
		Min: geom.Point{X: center.X - 15000, Y: center.Y - 15000},
		Max: geom.Point{X: center.X + 15000, Y: center.Y + 15000},
	}
	queries := hotQueries(center, wide)
	sc := srv.getScratch()
	if n := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			if em, ok := srv.executeQuery(q, sc, time.Time{}).(*proto.ErrorMsg); ok {
				t.Fatalf("query %+v failed: %s", q, em.Text)
			}
		}
	}); n != 0 {
		t.Fatalf("warm sharded executeQuery: %.2f allocs/op over %d queries, want 0", n, len(queries))
	}
}

// TestShardedServeContention drives a sharded server from many concurrent
// client connections — the admission gate multiplexes their requests over
// the shared shard set. Under -race this exercises the full network + shard
// stack for data races; everywhere it checks answers against the monolithic
// pool.
func TestShardedServeContention(t *testing.T) {
	ds, _, _, addr := testWorldSharded(t, 8, nil)
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}

	center := ds.Extent.Center()
	windows := make([]geom.Rect, 6)
	for i := range windows {
		h := float64(1000 * (i + 1))
		windows[i] = geom.Rect{
			Min: geom.Point{X: center.X - h, Y: center.Y - h},
			Max: geom.Point{X: center.X + h, Y: center.Y + h},
		}
	}
	want := make([][]uint32, len(windows))
	for i, w := range windows {
		want[i] = mono.RangeAppend(nil, w)
	}

	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t, addr, 1)
			for r := 0; r < 20; r++ {
				i := (c + r) % len(windows)
				got, err := cl.RangeIDs(windows[i])
				if err != nil {
					errs <- err
					return
				}
				if !equalIDSets(got, want[i]) {
					t.Errorf("conn %d round %d: sharded answer diverged", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func equalIDSets(a, b []uint32) bool {
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
