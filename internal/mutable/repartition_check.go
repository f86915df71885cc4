package mutable

import (
	"fmt"

	"mobispatial/internal/shard"
)

// checkOwners enables the topology invariant checks at every repartition
// publish: each shard sits in the cluster range its Lo keys into, and after
// adopt no id-table owner points at a shard outside the about-to-be-published
// set. The soak test flips it on; production leaves it off and pays one
// branch per split/merge. The per-layer state dump in the owner panic is
// deliberate — a violation there means a writer and a repartition disagreed
// about where an id lives, and the layer bits are what localize which freeze
// window the write slipped through.
var checkOwners bool

func ownerIDState(tag string, s *mshard, id uint32) string {
	_, inOver := s.overSeg[id]
	_, inTomb := s.tombs[id]
	inHas := s.base.Load().contains(id)
	fOver, fTomb := false, false
	if s.frozen != nil {
		_, fOver = s.frozen.overSeg[id]
		_, fTomb = s.frozen.tombs[id]
	}
	return fmt.Sprintf(" %s(li=%d over=%v tomb=%v has=%v fOver=%v fTomb=%v frozen=%v)",
		tag, s.li, inOver, inTomb, inHas, fOver, fTomb, s.frozen != nil)
}

// verifyOwnersLocked panics if a shard of nt does not sit in the cluster
// range its Lo keys into, or any id-table owner points outside nt's shards.
// Caller holds p.omu and the shard locks of every retired/created shard,
// immediately before storing nt.
func verifyOwnersLocked(p *Pool, op string, nt *topology, retired, created []*mshard) {
	valid := make(map[*mshard]bool, len(nt.shards))
	for i, s := range nt.shards {
		if g := shard.RangeForKey(p.cuts, nt.cuts[i]); s.rg != g {
			panic(fmt.Sprintf("%s gen %d: shard %d (Lo %d) sits in cluster range %d, its Lo keys into %d",
				op, nt.gen, i, nt.cuts[i], s.rg, g))
		}
		valid[s] = true
	}
	p.ids.each(func(id uint32, sh *mshard) {
		if valid[sh] {
			return
		}
		msg := fmt.Sprintf("%s gen %d->%d: owner(%d) -> invalid shard li=%d;", op, nt.gen-1, nt.gen, id, sh.li)
		msg += ownerIDState("owner", sh, id)
		for i, s := range retired {
			msg += ownerIDState(fmt.Sprintf("retired%d", i), s, id)
		}
		for i, s := range created {
			msg += ownerIDState(fmt.Sprintf("new%d", i), s, id)
		}
		panic(msg)
	})
}
