package parallel

import (
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

func fixture(t testing.TB) (*dataset.Dataset, *rtree.Tree) {
	t.Helper()
	cfg := dataset.NYCConfig()
	cfg.NumSegments = 8000
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, tree
}

func TestNewValidation(t *testing.T) {
	ds, tree := fixture(t)
	if _, err := New(nil, tree, 4); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := New(ds, nil, 4); err == nil {
		t.Error("nil index accepted")
	}
	p, err := New(ds, tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() < 1 {
		t.Fatal("no workers")
	}
}

func TestRefinementActuallyFilters(t *testing.T) {
	ds, tree := fixture(t)
	p, err := New(ds, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	var hits []uint32
	for i, w := range dataset.RangeQueries(ds, 30, 11) {
		hits = p.RangeAppend(hits[:0], w)
		for _, id := range hits {
			if !ds.Seg(id).IntersectsRect(w) {
				t.Fatalf("query %d: id %d does not intersect the window", i, id)
			}
		}
		// And nothing intersecting was dropped.
		n := 0
		for sid, s := range ds.Segments {
			if s.IntersectsRect(w) {
				n++
				found := false
				for _, id := range hits {
					if id == uint32(sid) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("query %d: segment %d missing", i, sid)
				}
			}
		}
		if n != len(hits) {
			t.Fatalf("query %d: %d hits, brute force %d", i, len(hits), n)
		}
	}
}
