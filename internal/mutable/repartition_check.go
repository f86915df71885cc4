package mutable

import "fmt"

// checkOwners enables an id-table invariant check at every repartition
// publish: after adopt, no owner entry may point at a shard outside the
// about-to-be-published set. The soak test flips it on; production leaves it
// off and pays one branch per split/merge. The per-layer state dump in the
// panic is deliberate — a violation here means a writer and a repartition
// disagreed about where an id lives, and the layer bits are what localize
// which freeze window the write slipped through.
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

// verifyOwnersLocked panics if any id-table owner points outside
// (t.shards \ retired) ∪ created. Caller holds p.omu and the shard locks of
// every retired/created shard, immediately before storing the new topology.
func verifyOwnersLocked(p *Pool, op string, t *topology, retired, created []*mshard) {
	valid := make(map[*mshard]bool, len(t.shards)+len(created))
	for _, s := range t.shards {
		valid[s] = true
	}
	for _, s := range retired {
		delete(valid, s)
	}
	for _, s := range created {
		valid[s] = true
	}
	p.ids.each(func(id uint32, sh *mshard) {
		if valid[sh] {
			return
		}
		msg := fmt.Sprintf("%s gen %d->%d: owner(%d) -> invalid shard li=%d;", op, t.gen, t.gen+1, id, sh.li)
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
