package serve

import (
	"testing"

	"mobispatial/internal/geom"
)

// TestClientReadAllocatesOnlyItsAnswer: a warm id-mode read over the wire —
// client encode, server decode, walk and encode, client decode — allocates
// the answer's id slice and nothing else, because the reply's shell goes
// back to the pool once the slice is detached; a read whose answer is empty
// allocates nothing at all. The count is process-wide, so it holds the
// server's side of the exchange to zero as well.
func TestClientReadAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	hit := hotWindow(ds.Seg(0).Midpoint())
	past := geom.Point{X: ds.Extent.Max.X + 100, Y: ds.Extent.Max.Y + 100}
	miss := geom.Rect{Min: past, Max: past}.Expand(10) // beyond the map
	for _, tc := range []struct {
		name   string
		w      geom.Rect
		allocs float64
	}{{"non-empty", hit, 1}, {"empty", miss, 0}} {
		ids, err := c.RangeIDs(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if (len(ids) > 0) != (tc.allocs > 0) {
			t.Fatalf("%s window answered %d ids", tc.name, len(ids))
		}
		if n := testing.AllocsPerRun(500, func() {
			if _, err := c.RangeIDs(tc.w); err != nil {
				t.Fatal(err)
			}
		}); n != tc.allocs {
			t.Errorf("warm id-mode read, %s answer: %.2f allocs/op, want %v", tc.name, n, tc.allocs)
		}
	}
}
