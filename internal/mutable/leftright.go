package mutable

import (
	"runtime"
	"sync/atomic"
	"time"

	"mobispatial/internal/geom"
)

// A shard's read state is held twice, as a left-right pair (Ramalhete &
// Correia, "Left-Right: A Concurrency Control Technique with Wait-Free
// Population Oblivious Reads", 2015), so that no read of a shard with
// pending writes ever waits for its writer.
//
// A reader announces itself on the read indicator the version index names,
// then reads the copy the front index names, and leaves: two atomic adds and
// two loads, no lock, whatever the writer is doing. A writer — writers are
// serialized by the shard's mutex — applies its change to the copy nobody is
// told to read, flips the front index, so that every read that starts
// afterwards reads the changed copy, and toggles the version index, so
// that every reader that arrives afterwards announces on the other
// indicator. The change is then published. The old front copy lags by it
// until the next publish, which first waits until the readers that arrived
// before that toggle have left — only they can be on the lagging copy — and
// replays the change there.
// By then those readers are long gone, so a writer on a busy shard seldom
// waits at all; when it does, the wait is the writer's alone, and a read
// lasts microseconds. This is the paper's protocol with its second half —
// wait, then apply again — deferred to the next write.
//
// The copies are reused in place: a warm write is the same map look-up and
// slot store on each, and allocates nothing.

// layers is one copy of a shard's read state: the packed base it reads and
// the overlay layers above it — the frozen layer of a compaction in flight
// and the live overlay (its segments and tombstones).
type layers struct {
	base   *baseView
	frozen *frozenView
	segs   overlay
	tombs  map[uint32]struct{}
}

func newLayers(bv *baseView) layers {
	return layers{base: bv, segs: newOverlay(), tombs: map[uint32]struct{}{}}
}

// size is the number of pending entries the copy holds, the frozen layer's
// included.
func (l *layers) size() int {
	n := l.segs.len() + len(l.tombs)
	if f := l.frozen; f != nil {
		n += f.size()
	}
	return n
}

// maskFrozen reports whether a frozen-overlay entry for id is shadowed by
// the live overlay.
func (l *layers) maskFrozen(id uint32) bool {
	if l.segs.has(id) {
		return true
	}
	_, ok := l.tombs[id]
	return ok
}

// find is the one layered look-up: id's geometry when id is visible in this
// copy, the layers read newest first, a tombstone ending the search, the
// base at position pos (baseView.find).
func (l *layers) find(id, pos uint32) (geom.Segment, bool) {
	if seg, ok := l.segs.get(id); ok {
		return seg, true
	}
	if _, dead := l.tombs[id]; dead {
		return geom.Segment{}, false
	}
	if f := l.frozen; f != nil {
		if seg, ok := f.segs.get(id); ok {
			return seg, true
		}
		if _, dead := f.tombs[id]; dead {
			return geom.Segment{}, false
		}
	}
	return l.base.find(id, pos)
}

// bounds is the copy's extent: its base's bounds plus the overlay geometry.
func (l *layers) bounds() geom.Rect {
	out := l.base.bounds
	if f := l.frozen; f != nil {
		for _, e := range f.segs.ents {
			out = out.Union(e.mbr)
		}
	}
	for _, e := range l.segs.ents {
		out = out.Union(e.mbr)
	}
	return out
}

// leftRight is the pair and its two indices. Each atomic sits on its own
// cache line: every reader writes an indicator, and the writer polls them.
type leftRight struct {
	front   atomic.Uint32 // the copy readers read
	_       [60]byte
	vi      atomic.Uint32 // the indicator arriving readers announce on
	_       [60]byte
	readers [2]readIndicator
	copies  [2]layers
	// lag is the last published change, not yet replayed on the copy
	// behind the front; its kind is none when the copies are equal.
	lag change
}

type readIndicator struct {
	n atomic.Int64
	_ [56]byte
}

// enter announces a reader and returns the copy it may read until it calls
// leave with the returned ticket. It never waits.
func (lr *leftRight) enter() (*layers, uint32) {
	vi := lr.vi.Load()
	lr.readers[vi].n.Add(1)
	return &lr.copies[lr.front.Load()], vi
}

// leave ends the read that enter returned ticket vi for.
func (lr *leftRight) leave(vi uint32) { lr.readers[vi].n.Add(-1) }

// current is the copy readers are sent to, which holds every published
// change. Only a writer (holding the shard's mutex) may read it without
// entering.
func (lr *leftRight) current() *layers { return &lr.copies[lr.front.Load()] }

// publish makes c visible to every read that starts after it returns,
// and to no read as a partial change: it levels the copy behind the front,
// applies c there, flips, and toggles the version index. It returns c as
// applied (a freeze records the frozen layer it detached). The caller holds
// the shard's mutex.
func (lr *leftRight) publish(c change) change {
	lr.level()
	front := lr.front.Load()
	c.apply(&lr.copies[front^1])
	lr.front.Store(front ^ 1)
	// Before arrivals move to the other indicator, wait out whoever is
	// still on it: they loaded the version index before the previous
	// toggle, one of them may be on the copy just retired, and the next
	// level waits on the indicator in use now only.
	next := lr.vi.Load() ^ 1
	lr.readers[next].drain()
	lr.vi.Store(next)
	lr.lag = c
	return c
}

// level replays the lagging change on the copy behind the front, once the
// readers that may still be on that copy have left: every one of them
// announced before the last publish toggled the version index, on the
// indicator arrivals no longer use (or, if older still, on the other one,
// which that publish drained). The caller holds the shard's mutex.
func (lr *leftRight) level() {
	if lr.lag.kind == changeNone {
		return
	}
	lr.readers[lr.vi.Load()^1].drain()
	lr.lag.apply(&lr.copies[lr.front.Load()^1])
	lr.lag = change{}
}

// A writer waiting on an indicator polls it drainSpins times, then yields
// its processor drainYields times, then naps: a reader that is running
// leaves within microseconds, one that is not (descheduled, or parked in a
// GC assist) may take milliseconds, and the writer should not burn them.
const (
	drainSpins  = 64
	drainYields = 64
	drainNap    = 50 * time.Microsecond
)

// drain waits until no reader is announced on r.
func (r *readIndicator) drain() {
	for i := 0; r.n.Load() != 0; i++ {
		switch {
		case i < drainSpins:
		case i < drainSpins+drainYields:
			runtime.Gosched()
		default:
			time.Sleep(drainNap)
		}
	}
}

// change is one write to a shard's read state, as data: it is applied to
// the two copies at different times.
type change struct {
	kind changeKind
	id   uint32
	seg  geom.Segment
	// frozen is the layer a freeze detached from the first copy it was
	// applied to, and shares with the second; base is a swap's new base.
	frozen *frozenView
	base   *baseView
}

type changeKind uint8

const (
	changeNone   changeKind = iota
	changeUpsert            // id's live geometry becomes seg
	changeRemove            // id is tombstoned
	changeFreeze            // the live overlay becomes the frozen layer
	changeSwap              // base becomes the fold of the frozen layer, which goes
)

func (c *change) apply(l *layers) {
	switch c.kind {
	case changeUpsert:
		l.segs.put(c.id, c.seg)
		delete(l.tombs, c.id)
	case changeRemove:
		l.segs.del(c.id)
		l.tombs[c.id] = struct{}{}
	case changeFreeze:
		if c.frozen == nil {
			// The first copy hands its overlay over; the second, once
			// drained, clears its own in place.
			c.frozen = &frozenView{segs: l.segs, tombs: l.tombs}
			l.segs, l.tombs = newOverlay(), map[uint32]struct{}{}
		} else {
			l.segs.reset()
			clear(l.tombs)
		}
		l.frozen = c.frozen
	case changeSwap:
		l.base, l.frozen = c.base, nil
	}
}
