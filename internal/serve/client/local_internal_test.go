package client

import (
	"math"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

// hintClient seeds a client with a bare shipment of the given build epoch —
// just enough state to drive the freshness protocol directly. It is never
// dialed.
func hintClient(t *testing.T, epoch uint64) *Client {
	t.Helper()
	c, err := New(Config{
		Addr: "127.0.0.1:1", Conns: 1,
		Shipment: &Shipment{Epoch: epoch},
		maxAge:   time.Minute,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func (c *Client) freshNow() bool {
	return c.local.Load().fresh(time.Now(), c.cfg.maxAge)
}

// TestNoteHintOutOfOrderCannotResurrect pins the retirement protocol against
// reply reordering. Replies arrive out of order (retries, several pooled
// connections), so after a hint proves a server-side write, a DELAYED reply
// still carrying the shipment's build epoch may arrive — it must not bring
// freshness back: the write it predates still happened.
func TestNoteHintOutOfOrderCannotResurrect(t *testing.T) {
	const buildEpoch = 0x1111
	const postWrite = 0x2222
	c := hintClient(t, buildEpoch)

	if c.freshNow() {
		t.Fatal("a seeded shipment of unknown age is fresh before any hint arrived")
	}
	c.noteHint(buildEpoch)
	if !c.freshNow() {
		t.Fatal("not fresh after the matching hint primed it")
	}
	c.noteHint(postWrite)
	if c.freshNow() {
		t.Fatal("fresh after a hint proved a server-side write")
	}
	// The delayed pre-write reply lands last.
	c.noteHint(buildEpoch)
	if c.freshNow() {
		t.Fatal("delayed old-epoch reply resurrected a retired shipment")
	}
	if !c.local.Load().retired {
		t.Fatal("retirement latch not set")
	}
}

// TestNoteHintRetirementBeforePriming covers the other interleaving: the
// write-proving hint arrives before any matching hint ever primed the state.
// The later matching hint (a delayed pre-write reply) must not prime it.
func TestNoteHintRetirementBeforePriming(t *testing.T) {
	const buildEpoch = 0x1111
	const postWrite = 0x2222
	c := hintClient(t, buildEpoch)

	c.noteHint(postWrite)
	c.noteHint(buildEpoch)
	if c.freshNow() {
		t.Fatal("retired-before-primed shipment answered locally")
	}
}

// TestNoteHintZeroIgnored: a 0 hint carries no information — it neither
// primes nor retires.
func TestNoteHintZeroIgnored(t *testing.T) {
	const buildEpoch = 0x1111
	c := hintClient(t, buildEpoch)

	c.noteHint(0)
	if c.local.Load().retired {
		t.Fatal("zero hint retired the shipment")
	}
	c.noteHint(buildEpoch)
	c.noteHint(0)
	if !c.freshNow() {
		t.Fatal("zero hint disturbed a primed shipment")
	}
}

// TestRetireLatchesAndFetchResets: an observed write retires the state for
// good — no later hint revives it — and only installing a new shipment
// starts over; a shipment that never claimed currency (epoch 0) is never
// fresh, hint or no hint.
func TestRetireLatchesAndFetchResets(t *testing.T) {
	const buildEpoch = 0x1111
	c := hintClient(t, buildEpoch)
	c.noteHint(buildEpoch)
	c.retire()
	c.noteHint(buildEpoch)
	if c.freshNow() {
		t.Fatal("a hint revived a shipment retired by an observed write")
	}
	c.install(&Shipment{Epoch: buildEpoch}, time.Now())
	if !c.freshNow() {
		t.Fatal("a newly installed shipment did not start over")
	}
	c.install(&Shipment{}, time.Now())
	c.noteHint(buildEpoch)
	if c.freshNow() {
		t.Fatal("an epoch-0 shipment became fresh")
	}
}

// TestHintsRaceToOneVerdict runs matching and write-proving hints, retires
// and freshness reads from many goroutines at once (-race): whatever the
// interleaving, once any write-proving hint has been noted the state is
// retired and stays so.
func TestHintsRaceToOneVerdict(t *testing.T) {
	const buildEpoch = 0x1111
	c := hintClient(t, buildEpoch)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				switch {
				case g == 0 && i == 1000:
					c.noteHint(0x2222)
				case g == 1:
					c.freshNow()
				default:
					c.noteHint(buildEpoch)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s := c.local.Load(); !s.retired || s.fresh(time.Now(), c.cfg.maxAge) {
		t.Fatalf("state after the race: %+v, want retired", *s)
	}
}

// TestWireQueryRoundTrip: toWire and fromWire are inverses on every kind the
// planner hands over, and a k the wire's 16 bits cannot carry is refused, not
// truncated (65541 once went out as k = 5 and came back as the whole answer).
func TestWireQueryRoundTrip(t *testing.T) {
	pt := geom.Point{X: 3, Y: 4}
	for _, q := range []scheme.Query{
		scheme.Point(pt),
		scheme.Range(geom.Rect{Min: pt, Max: geom.Point{X: 30, Y: 40}}),
		scheme.Nearest(pt),
		scheme.KNearest(pt, 8),
		scheme.KNearest(pt, math.MaxUint16),
	} {
		m, err := toWire(q, proto.ModeIDs)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if m.Mode != proto.ModeIDs {
			t.Errorf("%v: mode %v on the wire", q, m.Mode)
		}
		if got, ok := fromWire(m); !ok || got != q {
			t.Errorf("round trip of %+v came back %+v (ok=%v)", q, got, ok)
		}
		proto.ReleaseMessage(m)
	}
	// Every spelling of "the nearest one" is one wire query.
	for _, k := range []int{-1, 0, 1} {
		m, err := toWire(scheme.KNearest(pt, k), proto.ModeData)
		if err != nil || m.K != 1 {
			t.Fatalf("k=%d: wire k %d, err %v", k, m.K, err)
		}
		if got, _ := fromWire(m); got != scheme.Nearest(pt) {
			t.Errorf("k=%d came back %+v", k, got)
		}
		proto.ReleaseMessage(m)
	}
	for _, k := range []int{math.MaxUint16 + 1, 65541, 1 << 20} {
		if m, err := toWire(scheme.KNearest(pt, k), proto.ModeData); err == nil || !strings.Contains(err.Error(), "exceeds wire limit") {
			t.Errorf("k=%d: wire query %+v, err %v; want a refusal", k, m, err)
		}
	}
}
