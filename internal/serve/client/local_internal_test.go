package client

import (
	"testing"
	"time"
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
