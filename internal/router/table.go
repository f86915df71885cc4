package router

import (
	"fmt"
	"math"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/shard"
)

// table is the shard→server assignment derived from the backends' summaries:
// which backends hold each Hilbert range and each range's MBR — the routing
// predicate of range and point reads and the NN visit order alike. A table
// value is immutable once built — the router refreshes routing by
// building a fresh table, of the registered range structure, from re-polled
// summaries and atomically swapping the snapshot pointer, never by mutating
// one in place. Health is tracked by the per-backend breakers, not here.
type table struct {
	numRanges int
	// holders[r] lists the backends holding range r, ascending.
	holders [][]int32
	// rangeMBR[r] is the MBR of range r's items (geom.EmptyRect for a
	// range no backend reported items in).
	rangeMBR []geom.Rect
	// holds[b][r] reports whether backend b holds range r.
	holds [][]bool
	// keyLo[r] is range r's Lo Hilbert key — the gap-free write-ownership
	// cuts (shard.RangeForKey). Every holder of a range must report the
	// same Lo: the cuts come from the deterministic cluster-wide
	// partition, so disagreement means the backends were partitioned
	// differently and no write routing is safe.
	keyLo []uint64
	// version[r] is the MINIMUM write-version — writes applied to the
	// range — any holder reported for range r. The minimum is the
	// conservative choice for cache validity: a replica still catching up
	// keeps the cluster-wide version (and so every cache entry over the
	// range) pinned until all copies agree.
	version []uint64
	// divergent[r] reports that r's holders disagreed on version or item
	// count at summary time — replication lag was in flight. A divergent
	// range's MBR may under-report (a lagging replica may be selected for
	// reads), so routing treats it as covering everything.
	divergent []bool
}

// buildTable validates the summaries agree and derives the assignment. Every
// backend must report the same cluster range count, and every range must
// have at least one holder — a cluster missing a range entirely could
// silently answer with holes, which is worse than failing registration.
func buildTable(summaries []*proto.SummaryMsg) (table, error) {
	if len(summaries) == 0 {
		return table{}, fmt.Errorf("no summaries")
	}
	n := int(summaries[0].NumRanges)
	if n <= 0 {
		return table{}, fmt.Errorf("backend 0 reports %d ranges", n)
	}
	t := table{
		numRanges: n,
		holders:   make([][]int32, n),
		rangeMBR:  make([]geom.Rect, n),
		holds:     make([][]bool, len(summaries)),
		keyLo:     make([]uint64, n),
		version:   make([]uint64, n),
		divergent: make([]bool, n),
	}
	for i := range t.rangeMBR {
		t.rangeMBR[i] = geom.EmptyRect()
	}
	items := make([]uint32, n) // the first holder's item count per range
	for b, sm := range summaries {
		if int(sm.NumRanges) != n {
			return table{}, fmt.Errorf("backend %d reports %d ranges, backend 0 reports %d", b, sm.NumRanges, n)
		}
		t.holds[b] = make([]bool, n)
		for _, ri := range sm.Ranges {
			idx := int(ri.Index)
			if idx >= n {
				return table{}, fmt.Errorf("backend %d holds out-of-range index %d", b, idx)
			}
			if t.holds[b][idx] {
				return table{}, fmt.Errorf("backend %d reports range %d twice", b, idx)
			}
			t.holds[b][idx] = true
			if len(t.holders[idx]) == 0 {
				t.keyLo[idx] = ri.Lo
				t.version[idx] = ri.Version
				items[idx] = ri.Items
			} else {
				if t.keyLo[idx] != ri.Lo {
					return table{}, fmt.Errorf("backend %d reports range %d with Lo key %d, earlier holder reported %d",
						b, idx, ri.Lo, t.keyLo[idx])
				}
				if t.version[idx] != ri.Version || items[idx] != ri.Items {
					t.divergent[idx] = true
				}
				if ri.Version < t.version[idx] {
					t.version[idx] = ri.Version
				}
			}
			t.holders[idx] = append(t.holders[idx], int32(b))
			t.rangeMBR[idx] = t.rangeMBR[idx].Union(ri.MBR)
		}
	}
	for idx, hs := range t.holders {
		if len(hs) == 0 {
			return table{}, fmt.Errorf("range %d has no holder among %d backends", idx, len(summaries))
		}
		if idx > 0 && t.keyLo[idx] < t.keyLo[idx-1] {
			return table{}, fmt.Errorf("range %d has Lo key %d below range %d's %d — key cuts must ascend",
				idx, t.keyLo[idx], idx-1, t.keyLo[idx-1])
		}
	}
	return t, nil
}

// fits reports whether a summary describes this table's range structure: the
// same range count, each row at its range's Lo key. A refresh builds only
// from summaries that fit, so the structure registered is the structure
// every later snapshot has.
func (t *table) fits(sm *proto.SummaryMsg) bool {
	if int(sm.NumRanges) != t.numRanges {
		return false
	}
	for _, ri := range sm.Ranges {
		if int(ri.Index) >= t.numRanges || ri.Lo != t.keyLo[ri.Index] {
			return false
		}
	}
	return true
}

// rangeForKey returns the index of the range owning a write key under the
// cluster's gap-free ownership rule.
func (t *table) rangeForKey(key uint64) int {
	return shard.RangeForKey(t.keyLo, key)
}

// eff is range rg's effective extent, the one rect every read plans by: its
// summary MBR widened by the growth of writes routed since the summary — or
// everything when its holders diverged at summary time, because a lagging
// replica's items are not bounded by the merged MBR.
func (s *routing) eff(rg int) geom.Rect {
	if s.divergent[rg] {
		return everythingRect
	}
	return s.rangeMBR[rg].Union(s.grow[rg])
}

// nearestRange returns the range whose effective extent is nearest pt, the
// lowest index on a tie: where a k-NN's visit starts.
func (s *routing) nearestRange(pt geom.Point) int32 {
	best, bd := int32(0), math.Inf(1)
	for rg := range s.rangeMBR {
		if d := s.eff(rg).MinDist(pt); d < bd {
			best, bd = int32(rg), d
		}
	}
	return best
}

// neededRanges appends the indices of ranges that may hold items matching a
// query inside w: those whose effective extent intersects it.
func (s *routing) neededRanges(dst []int32, w geom.Rect) []int32 {
	for rg := range s.rangeMBR {
		if s.eff(rg).Intersects(w) {
			dst = append(dst, int32(rg))
		}
	}
	return dst
}
