package shard

import (
	"fmt"
	"sort"

	"mobispatial/internal/geom"
	"mobispatial/internal/hilbert"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
)

// This file exports the pieces of the sharding scheme the distributed tier
// reuses at cluster scope: the Hilbert-order partitioner (so every process
// derives the same contiguous key ranges from the same deterministic
// dataset, with no coordination), the one recipe for what backend i of N
// holds (Cut, then Hold), and the MINDIST visit-ordering helper the
// cross-shard NN loop schedules with (so the router's cross-*server* NN
// visit is the same algorithm one level up).

// Range is one contiguous Hilbert run of a partitioned item set — the unit
// of assignment in the distributed tier's shard→server table.
type Range struct {
	// Index is the range's position in the cluster-wide assignment.
	Index int
	// Lo and Hi are the inclusive Hilbert keys of the range's first and
	// last item under the partitioning quantizer.
	Lo, Hi uint64
	// Items is the range's item run — a subslice of the partitioned slice.
	Items []rtree.Item
	// MBR bounds the range's items.
	MBR geom.Rect
}

// PartitionHilbert sorts items in place by the Hilbert value of their MBR
// centroid (the same linearization the packed R-tree bulk loader uses) and
// cuts the order into n contiguous, near-equal runs (ceiling division keeps
// every run non-empty). shard.New cuts its local shards with it too, and
// every process partitioning the same item slice — mqserve backends and the
// router's equivalence tests build from the same deterministic dataset —
// derives bit-identical ranges.
// order 0 means the default Hilbert order; above hilbert.MaxOrder it panics.
// n is clamped to the item count; an empty input yields no ranges.
func PartitionHilbert(items []rtree.Item, n int, order uint) ([]Range, geom.Rect) {
	bounds := BoundsOf(items)
	if n > len(items) {
		n = len(items)
	}
	if n <= 0 || len(items) == 0 {
		return nil, bounds
	}
	keys := rtree.HilbertSort(items, bounds, order)

	ranges := make([]Range, 0, n)
	chunk := (len(items) + n - 1) / n
	for lo := 0; lo < len(items); lo += chunk {
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		mbr := geom.EmptyRect()
		for _, it := range items[lo:hi] {
			mbr = mbr.Union(it.MBR)
		}
		ranges = append(ranges, Range{
			Index: len(ranges),
			Lo:    keys[lo],
			Hi:    keys[hi-1],
			Items: items[lo:hi],
			MBR:   mbr,
		})
	}
	return ranges, bounds
}

// WriteKey returns the Hilbert routing key of an object MBR under the
// cluster's quantizer: the key of the MBR centroid, exactly as
// PartitionHilbert computes item keys. Everything that routes a live write —
// the router picking the owning range, a mutable pool picking the owning
// shard, a backend deciding whether a moved object still belongs to it —
// must use this one recipe over the same bounds, or the same object would
// land in different places on different hops. Out-of-bounds centroids clamp
// to the boundary cell (hilbert.Quantizer's contract), so a vehicle that
// drives off the map edge still has a deterministic owner.
func WriteKey(q *hilbert.Quantizer, mbr geom.Rect) uint64 {
	c := mbr.Center()
	return q.Value(c.X, c.Y)
}

// QuantizerFor builds the partitioning quantizer over bounds — the shared
// half of the WriteKey recipe. order 0 means the default Hilbert order.
func QuantizerFor(bounds geom.Rect, order uint) *hilbert.Quantizer {
	if order == 0 {
		order = hilbert.Order
	}
	return hilbert.NewQuantizer(order, bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y)
}

// BoundsOf returns the union of the items' MBRs — the bounds PartitionHilbert
// quantizes over, exposed so write routers derive the identical quantizer
// from the identical deterministic item set.
func BoundsOf(items []rtree.Item) geom.Rect {
	bounds := geom.EmptyRect()
	for _, it := range items {
		bounds = bounds.Union(it.MBR)
	}
	return bounds
}

// RangeForKey returns the index of the range owning key under the gap-free
// ownership rule: range i owns keys in [cuts[i], cuts[i+1]) where cuts[i] is
// range i's Lo, the last range owns through the top of the key space, and
// keys below cuts[0] (possible for positions outside the original data
// extent) belong to range 0. cuts must be ascending and non-empty.
func RangeForKey(cuts []uint64, key uint64) int {
	// The first cut whose Lo exceeds key ends the owning range.
	i := sort.Search(len(cuts), func(i int) bool { return cuts[i] > key })
	if i == 0 {
		return 0
	}
	return i - 1
}

// ReplicaRanges returns the range indices backend holds in an N-range
// cluster with R-way replication under the rotation placement: range r
// lives on backends r, r+1, …, r+R-1 (mod N), so backend b holds ranges
// b, b-1, …, b-R+1 (mod N) — its primary first. R is clamped to [1, N].
func ReplicaRanges(backend, nRanges, replicas int) ([]int, error) {
	if err := CheckHold(backend, nRanges, 1); err != nil {
		return nil, err
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > nRanges {
		replicas = nRanges
	}
	out := make([]int, 0, replicas)
	for j := 0; j < replicas; j++ {
		out = append(out, ((backend-j)%nRanges+nRanges)%nRanges)
	}
	return out, nil
}

// Partition is an item set cut into N contiguous Hilbert ranges: the
// cluster's assignment table, which every process derives bit for bit from
// the same deterministic items.
type Partition struct {
	// N is the range count asked for.
	N int
	// Ranges are the ranges in key order, fewer than N when the items yield
	// fewer; Ranges[i].Index is i.
	Ranges []Range
	// Cuts are every range's Lo, the write-ownership table (RangeForKey).
	Cuts []uint64
	// Bounds is BoundsOf the items, the extent writes are keyed over.
	Bounds geom.Rect
}

// Cut sorts items in place and cuts them into n ranges (PartitionHilbert at
// the default order).
func Cut(items []rtree.Item, n int) Partition {
	ranges, bounds := PartitionHilbert(items, n, 0)
	p := Partition{N: n, Ranges: ranges, Bounds: bounds}
	for _, rg := range ranges {
		p.Cuts = append(p.Cuts, rg.Lo)
	}
	return p
}

// Held is what one backend of a partitioned cluster holds: its ranges, and
// the cluster-wide cuts and bounds every backend keys writes by.
type Held struct {
	// Ranges are the held ranges, primary first.
	Ranges []Range
	Cuts   []uint64
	Bounds geom.Rect
}

// Hold is backend's share of the partition at replicas-way rotation
// placement (ReplicaRanges): ranges backend, backend-1, …, backend-R+1
// mod N. It is the one recipe for "backend i of N", and the one place that
// refuses a backend outside [0, N), replicas outside [1, N] (CheckHold) and
// items that yield fewer than N ranges.
func (p Partition) Hold(backend, replicas int) (Held, error) {
	if err := CheckHold(backend, p.N, replicas); err != nil {
		return Held{}, err
	}
	if len(p.Ranges) < p.N {
		return Held{}, fmt.Errorf("shard: the items yield only %d of %d ranges", len(p.Ranges), p.N)
	}
	idxs, _ := ReplicaRanges(backend, p.N, replicas)
	h := Held{Cuts: p.Cuts, Bounds: p.Bounds}
	for _, ri := range idxs {
		h.Ranges = append(h.Ranges, p.Ranges[ri])
	}
	return h, nil
}

// CheckHold is Hold's refusal of a placement, for a caller that has no
// items yet: a backend outside [0, n) or replicas outside [1, n].
func CheckHold(backend, n, replicas int) error {
	if backend < 0 || backend >= n {
		return fmt.Errorf("shard: backend %d outside [0, %d)", backend, n)
	}
	if replicas < 1 || replicas > n {
		return fmt.Errorf("shard: replicas %d outside [1, %d]", replicas, n)
	}
	return nil
}

// Len returns the number of items the held ranges carry.
func (h Held) Len() int {
	n := 0
	for _, rg := range h.Ranges {
		n += len(rg.Items)
	}
	return n
}

// Rows returns the summary rows the backend registers with, primary first.
func (h Held) Rows() []proto.RangeInfo {
	var rows []proto.RangeInfo
	for _, rg := range h.Ranges {
		rows = append(rows, proto.RangeInfo{Index: uint32(rg.Index), Items: uint32(len(rg.Items)), Lo: rg.Lo, Hi: rg.Hi, MBR: rg.MBR})
	}
	return rows
}

// IndexDist is one candidate in a best-first MINDIST visit: the lower bound
// Dist of candidate Index.
type IndexDist struct {
	Dist  float64
	Index int32
}

// OrderByMinDist appends one entry per rect — its MBR min-distance to pt —
// to dst and returns it sorted ascending by distance. Insertion sort:
// candidate counts (shards within a pool, servers within a cluster) are
// small, it allocates nothing, and it is deterministic on ties (stable in
// index order), so equal runs always visit identically. This ordering plus
// the running k-th-neighbor bound is the whole cross-shard NN schedule; the
// router applies it unchanged across servers.
func OrderByMinDist(dst []IndexDist, rects []geom.Rect, pt geom.Point) []IndexDist {
	for i := range rects {
		dst = append(dst, IndexDist{Dist: rects[i].MinDist(pt), Index: int32(i)})
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Dist < dst[j-1].Dist; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}
