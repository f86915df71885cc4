package qcache

import (
	"math"
	"testing"

	"mobispatial/internal/geom"
)

// FuzzSnapKeys hammers the snapped-key constructors with arbitrary float
// geometry (the same hostile inputs the proto fuzz corpus feeds the wire
// decoder: NaN, ±Inf, denormals, astronomic magnitudes). The invariants:
// never panic, and whenever a constructor accepts a window the returned
// snap must truly contain it — the refinement step's soundness hangs on
// that superset property.
func FuzzSnapKeys(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 100.0)
	f.Add(-10.0, -10.0, 10.0, 10.0, 512.0)
	f.Add(90.0, 10.0, 110.0, 90.0, 100.0)       // straddles a grid line
	f.Add(10.0, 10.0, -10.0, 20.0, 100.0)       // inverted
	f.Add(math.NaN(), 0.0, 1.0, 1.0, 100.0)     // NaN corner
	f.Add(0.0, 0.0, math.Inf(1), 1.0, 100.0)    // infinite corner
	f.Add(1e300, 1e300, 1e301, 1e301, 1.0)      // overflow
	f.Add(0.0, 0.0, 1.0, 1.0, 0.0)              // degenerate cell
	f.Add(0.0, 0.0, 1.0, 1.0, math.Inf(1))      // infinite cell
	f.Add(5e-324, 5e-324, 1e-300, 1e-300, 1e-8) // denormals
	f.Add(-1e12, -1e12, 1e12, 1e12, 0.001)      // index overflow via tiny cell
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, cell float64) {
		w := geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
		for _, filter := range []bool{false, true} {
			k, snap, ok := RangeKey(w, cell, filter)
			if ok {
				if !snap.ContainsRect(w) {
					t.Fatalf("RangeKey accepted %v (cell %v) but snap %v does not contain it", w, cell, snap)
				}
				k2, snap2, ok2 := RangeKey(w, cell, filter)
				if !ok2 || k2 != k || snap2 != snap {
					t.Fatalf("RangeKey not deterministic for %v", w)
				}
			}
		}
		pt := geom.Point{X: x0, Y: y0}
		if k, cr, ok := PointKey(pt, cell); ok {
			if !cr.ContainsPoint(pt) {
				t.Fatalf("PointKey accepted %v (cell %v) but cell rect %v misses it", pt, cell, cr)
			}
			k2, cr2, _ := PointKey(pt, cell)
			if k2 != k || cr2 != cr {
				t.Fatalf("PointKey not deterministic for %v", pt)
			}
		}
		if _, cr, ok := NNCellKey(pt, int(x1), cell); ok {
			if _, pcr, pok := PointKey(pt, cell); !cr.ContainsPoint(pt) || !pok || pcr != cr {
				t.Fatalf("NNCellKey accepted %v (cell %v) with cell rect %v; PointKey's is %v (%v)", pt, cell, cr, pcr, pok)
			}
		}
		if k, ok := NNKey(pt, int(x1)); ok {
			if k2, ok2 := NNKey(pt, int(x1)); !ok2 || k2 != k {
				t.Fatalf("NNKey not deterministic for %v k=%d", pt, int(x1))
			}
		}
	})
}
