package proto

import (
	"math/rand"
	"slices"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// seededAnswers are the id lists a server returns over one dataset's packed
// tree for three seeded query sets, each list ascending as a reply carries
// it: the §5.4 range windows (dataset.RangeQueries), 1 km windows centred on
// segment midpoints, and the §5.4 point queries at the server's default
// tolerance.
type seededAnswers struct {
	name                string
	ranges, km1, points [][]uint32
}

// answersOver answers n range windows of each kind and 4n points over ds.
func answersOver(tb testing.TB, ds *dataset.Dataset, name string, n int) seededAnswers {
	tb.Helper()
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		tb.Fatal(err)
	}
	a := seededAnswers{name: name}
	answer := func(ids []uint32) []uint32 {
		slices.Sort(ids)
		return slices.Clone(ids)
	}
	var ids []uint32
	for _, w := range dataset.RangeQueries(ds, n, 1) {
		ids = tree.AppendRange(ids[:0], nil, w, true, nil)
		a.ranges = append(a.ranges, answer(ids))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		c := ds.Seg(uint32(rng.Intn(ds.Len()))).Midpoint()
		ids = tree.AppendRange(ids[:0], nil, geom.Rect{Min: c, Max: c}.Expand(500), true, nil)
		a.km1 = append(a.km1, answer(ids))
	}
	for _, p := range dataset.PointQueries(ds, 4*n, 3) {
		ids = tree.AppendPoint(ids[:0], nil, p, DefaultPointEps, nil)
		a.points = append(a.points, answer(ids))
	}
	return a
}

// TestIDListBytesOnSeededAnswers holds the Rice coding's size against the
// run coding it replaced (appendIDRuns) on PA's and NYC's seeded answers:
// the §5.4 range lists average at most 0.72× the reference (PA reads 0.667,
// NYC 0.707), the 1 km lists at most 0.80× (0.726 and 0.775: ~15 runs
// leave the head, the parameter byte and the padding a larger share), the
// point lists at most 1.00× (0.78 and 0.79: a single run drops its length
// byte), and no list exceeds its reference by more than one byte. Every
// list decodes to itself.
func TestIDListBytesOnSeededAnswers(t *testing.T) {
	for _, a := range []seededAnswers{
		answersOver(t, dataset.PA(), "PA", 200),
		answersOver(t, dataset.NYC(), "NYC", 200),
	} {
		for _, set := range []struct {
			name  string
			lists [][]uint32
			ratio float64
		}{
			{"range windows", a.ranges, 0.72},
			{"1 km windows", a.km1, 0.80},
			{"points", a.points, 1.00},
		} {
			var rice, runs, ids int
			for _, l := range set.lists {
				enc, ref := appendIDs(nil, l), appendIDRuns(nil, l)
				if len(enc) > len(ref)+1 {
					t.Errorf("%s %s: a %d-id list codes to %d B, its reference to %d", a.name, set.name, len(l), len(enc), len(ref))
				}
				d := decoder{b: enc}
				if got := d.appendIDs(nil); d.finish("id list") != nil || !slices.Equal(got, l) {
					t.Fatalf("%s %s: a %d-id list did not decode to itself (%v)", a.name, set.name, len(l), d.err)
				}
				rice, runs, ids = rice+len(enc), runs+len(ref), ids+len(l)
			}
			n := float64(len(set.lists))
			r := float64(rice) / float64(runs)
			t.Logf("%s %s: %d lists of %.1f ids, %.1f B a list (%.3f B/id) against %.1f B: %.3f×",
				a.name, set.name, len(set.lists), float64(ids)/n, float64(rice)/n, float64(rice)/float64(ids), float64(runs)/n, r)
			if r > set.ratio {
				t.Errorf("%s %s: Rice lists are %.3f× the run coding, above %.2f×", a.name, set.name, r, set.ratio)
			}
		}
	}
}

// BenchmarkIDList times the id-list codec on its own over the answers of
// 200 §5.4 range windows over PA: ns/id to encode into a warm buffer and to
// decode into a reused slice, and the coding's B/id, each for the Rice
// coding (rice) beside the run coding it replaced (runs).
func BenchmarkIDList(b *testing.B) {
	lists := answersOver(b, dataset.PA(), "PA", 200).ranges
	ids := 0
	for _, l := range lists {
		ids += len(l)
	}
	for _, c := range []struct {
		name   string
		encode func([]byte, []uint32) []byte
		decode func(*decoder, []uint32) []uint32
	}{
		{"rice", appendIDs, (*decoder).appendIDs},
		{"runs", appendIDRuns, (*decoder).appendIDRuns},
	} {
		encoded, bytes := make([][]byte, len(lists)), 0
		for i, l := range lists {
			encoded[i] = c.encode(nil, l)
			bytes += len(encoded[i])
		}
		perID := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ids), "ns/id")
			b.ReportMetric(float64(bytes)/float64(ids), "B/id")
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, l := range lists {
					buf = c.encode(buf[:0], l)
				}
			}
			perID(b)
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			var dst []uint32
			var d decoder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range encoded {
					d = decoder{b: e}
					if dst = c.decode(&d, dst[:0]); d.err != nil {
						b.Fatal(d.err)
					}
				}
			}
			perID(b)
		})
	}
}
