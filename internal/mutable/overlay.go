package mutable

import "mobispatial/internal/geom"

// overlay is one layer's pending geometry: the ids written since the base
// beneath it was packed, each with its segment. It has one representation,
// a dense slice that every scan reads end to end (the range and point filter,
// k-NN, the shard's extent, the compaction fold) and an id→position map that
// every look-up goes through. A compaction bounds it to a few hundred
// entries (defaultCompactThreshold), so a linear scan is the index. A delete
// moves the last entry into the hole: order is not kept, density is.
type overlay struct {
	ents []overEnt
	at   map[uint32]int32
}

// overEnt is one pending object; mbr is seg.MBR(), kept for the filter.
type overEnt struct {
	id  uint32
	seg geom.Segment
	mbr geom.Rect
}

func newOverlay() overlay { return overlay{at: map[uint32]int32{}} }

func (o *overlay) len() int { return len(o.ents) }

func (o *overlay) has(id uint32) bool {
	_, ok := o.at[id]
	return ok
}

func (o *overlay) get(id uint32) (geom.Segment, bool) {
	if i, ok := o.at[id]; ok {
		return o.ents[i].seg, true
	}
	return geom.Segment{}, false
}

// put installs seg as id's geometry and reports whether id was present.
func (o *overlay) put(id uint32, seg geom.Segment) bool {
	e := overEnt{id: id, seg: seg, mbr: seg.MBR()}
	if i, ok := o.at[id]; ok {
		o.ents[i] = e
		return true
	}
	o.at[id] = int32(len(o.ents))
	o.ents = append(o.ents, e)
	return false
}

// reset empties the overlay in place, keeping its storage.
func (o *overlay) reset() {
	o.ents = o.ents[:0]
	clear(o.at)
}

// del removes id and reports whether it was present.
func (o *overlay) del(id uint32) bool {
	i, ok := o.at[id]
	if !ok {
		return false
	}
	last := len(o.ents) - 1
	if int(i) != last {
		o.ents[i] = o.ents[last]
		o.at[o.ents[i].id] = i
	}
	o.ents = o.ents[:last]
	delete(o.at, id)
	return true
}
