package router

import (
	"testing"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
)

// movedThroughA is the set-up both records tests share: three R=2 mutable
// backends behind routers A and B, neither refreshing by itself; dataset
// object x moved through A to `to`, which is no dataset geometry, and B
// refreshed once so its routing reaches the new position. B never saw the
// write: only the backends know where x is.
func movedThroughA(t *testing.T) (b *Router, x uint32, to geom.Segment) {
	t.Helper()
	ds := clusterDataset(t)
	tc, _, _ := startMutableCluster(t, ds, 3, 2)
	a := newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })
	b = newRouter(t, tc, func(cfg *Config) { cfg.RefreshInterval = -1 })
	x = 7
	from := ds.Seg(uint32(ds.Len() / 2))
	to = geom.Segment{A: geom.Point{X: from.A.X + 1.5, Y: from.A.Y + 1.5}, B: geom.Point{X: from.B.X + 1.5, Y: from.B.Y + 1.5}}
	if _, existed, owned, err := a.ApplyMove(x, to); err != nil || !existed || !owned {
		t.Fatalf("move of %d through A: existed=%v owned=%v err=%v", x, existed, owned, err)
	}
	b.refreshOnce()
	return b, x, to
}

// readsThroughB asks c, a client of a server over router B, for x in data
// mode by a window, a point and a k-NN at x's new position, and fails unless
// each answer holds x's record at `to`, no record is the zero segment, and
// every record of the window and the point matches its query at the segment
// it carries.
func readsThroughB(t *testing.T, label string, c *client.Client, x uint32, to geom.Segment) {
	t.Helper()
	w, pt := to.MBR(), to.A
	check := func(kind string, recs []proto.Record, err error, matches func(geom.Segment) bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", label, kind, err)
		}
		found := false
		for _, rec := range recs {
			if rec.Seg == (geom.Segment{}) || matches != nil && !matches(rec.Seg) {
				t.Fatalf("%s %s: record %d carries %v, which does not answer the query", label, kind, rec.ID, rec.Seg)
			}
			if rec.ID == x {
				if rec.Seg != to {
					t.Fatalf("%s %s: object %d carries %v, its position is %v (moved through another router)", label, kind, x, rec.Seg, to)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("%s %s: object %d, at %v, missing from %d records", label, kind, x, to, len(recs))
		}
	}
	recs, err := c.Range(w)
	check("range", recs, err, func(s geom.Segment) bool { return s.IntersectsRect(w) })
	recs, err = c.Point(pt, 0)
	check("point", recs, err, func(s geom.Segment) bool {
		return s.MBR().ContainsPoint(pt) && s.ContainsPoint(pt, proto.DefaultPointEps)
	})
	recs, err = c.KNearest(pt, 4)
	check("4-NN", recs, err, nil)
}

// TestRoutedRecordsCarryOtherRoutersWrites: an object moved through router A
// and read in data mode through router B, uncached, comes back at the
// position A put it: B's records are the ones the backends' walks matched,
// not a geometry B remembers or looks up.
func TestRoutedRecordsCarryOtherRoutersWrites(t *testing.T) {
	b, x, to := movedThroughA(t)
	_, c := dial(t, serve.Config{Pool: b}, 1)
	readsThroughB(t, "uncached", c, x, to)
}

// TestRouterCacheRecordsCarryOtherRoutersWrites is the same read through a
// result cache over router B: the fill (a miss) and the refinement of the
// stored entry (a hit) of a data-mode window, point and k-NN each carry the
// moved object's new segment, since an entry's segments are the ones its
// fill's legs answered.
func TestRouterCacheRecordsCarryOtherRoutersWrites(t *testing.T) {
	b, x, to := movedThroughA(t)
	srv, c := dial(t, serve.Config{Pool: b, Cache: qcache.New(qcache.Config{MaxBytes: 1 << 20, CellSize: 64})}, 1)
	readsThroughB(t, "miss", c, x, to)
	hits := srv.CacheStats().Hits
	readsThroughB(t, "hit", c, x, to)
	if got := srv.CacheStats().Hits - hits; got != 3 {
		t.Fatalf("second round took %d cache hits, want 3 (window, point, k-NN)", got)
	}
}
