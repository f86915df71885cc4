package router

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve"
)

// quickWindow is a testing/quick-generated query window inside the test
// extent; Generate implements quick.Generator.
type quickWindow struct{ W geom.Rect }

func (quickWindow) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(quickWindow{W: randWindow(rng, geom.Rect{
		Min: geom.Point{X: 0, Y: 0},
		Max: geom.Point{X: 40000, Y: 40000},
	}, 0.01+0.25*rng.Float64())})
}

// quickPoint is a testing/quick-generated query point with a k.
type quickPoint struct {
	Pt geom.Point
	K  int
}

func (quickPoint) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(quickPoint{
		Pt: geom.Point{X: 40000 * rng.Float64(), Y: 40000 * rng.Float64()},
		K:  1 + rng.Intn(16),
	})
}

// TestRouterQuickEquivalence pins router answers against a single monolithic
// serve instance over the same dataset, both reached through the wire
// protocol, and k-NN against that instance's pool: whatever testing/quick
// draws, the routed cluster and the one big server must agree on id sets
// and on k-NN answers id for id and distance for distance.
func TestRouterQuickEquivalence(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)

	// The monolithic reference server plus its wire client.
	pool := truthPool(t, ds)
	_, cc := dial(t, serve.Config{Pool: pool}, 2)

	qc := &quick.Config{MaxCount: 40}

	ranges := func(q quickWindow) bool {
		got, err := r.RangeAppendUntil(nil, q.W, time.Time{})
		if err != nil {
			t.Logf("router range: %v", err)
			return false
		}
		want, err := cc.RangeAppendUntil(nil, q.W, proto.ModeIDs, time.Time{})
		if err != nil {
			t.Logf("mono range: %v", err)
			return false
		}
		return equalIDSets(got, want)
	}
	if err := quick.Check(ranges, qc); err != nil {
		t.Errorf("range property: %v", err)
	}

	points := func(q quickPoint) bool {
		got, err := r.PointAppendUntil(nil, q.Pt, 0, time.Time{})
		if err != nil {
			t.Logf("router point: %v", err)
			return false
		}
		want, err := cc.PointAppendUntil(nil, q.Pt, 0, proto.ModeIDs, time.Time{})
		if err != nil {
			t.Logf("mono point: %v", err)
			return false
		}
		return equalIDSets(got, want)
	}
	if err := quick.Check(points, qc); err != nil {
		t.Errorf("point property: %v", err)
	}

	knn := func(q quickPoint) bool {
		got, err := r.KNearestAppendUntil(nil, q.Pt, q.K, nil, time.Time{})
		if err != nil {
			t.Logf("router knn: %v", err)
			return false
		}
		want, _ := pool.KNearestAppend(nil, q.Pt, q.K, nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if d := ds.Seg(got[i].ID).DistToPoint(q.Pt); d != got[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(knn, qc); err != nil {
		t.Errorf("knn property: %v", err)
	}
}

func equalIDSets(a, b []uint32) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
