// Package faultlink is a deterministic fault-injecting wrapper around
// net.Conn, net.Listener, and dial functions — the lossy, stalling,
// disappearing wireless link the paper assumes, imposed on the real TCP
// transport between internal/serve and internal/serve/client.
//
// Every fault decision is drawn from one seeded PRNG behind a mutex, so a
// given profile and seed produce the same decision SEQUENCE run after run
// (goroutine interleaving still decides which connection draws which
// decision). The injectable faults:
//
//   - added latency and jitter per operation (one-way, read and write);
//   - a bandwidth throttle (transfer time = bytes×8 / BandwidthBps);
//   - frame drops: a write reports success but the bytes never leave, so
//     the peer's read runs into its deadline — a lost frame on a live link;
//   - mid-frame resets: a write delivers a prefix of the buffer and then
//     hard-closes the connection, exercising the peer's partial-frame path;
//   - read/write stalls: the operation is held for StallFor (never past the
//     connection's deadline) before proceeding;
//   - scripted outage windows: during [Start, End) relative to the
//     injector's epoch — or while ForceOutage(true) is in effect — every
//     read, write, and dial fails immediately with ErrLinkDown, and a read
//     that was already blocked fails when it wakes rather than deliver bytes
//     that arrived over a dead link.
//
// Sleeps are always capped by the connection's read/write deadline, so a
// faulted operation can delay up to its caller's own time budget but never
// hang past it.
package faultlink

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrLinkDown is the failure every operation returns during an outage
// window. It unwraps from the net.OpError the wrapped conns produce.
var ErrLinkDown = errors.New("faultlink: link down (outage window)")

// ErrInjectedReset is the failure of a mid-frame reset.
var ErrInjectedReset = errors.New("faultlink: injected connection reset")

// Outage is one scripted window of total link loss, relative to the
// injector's epoch (New or the last ResetClock call).
type Outage struct {
	Start time.Duration
	End   time.Duration
}

// Profile parameterizes an Injector. The zero value injects nothing.
type Profile struct {
	// Seed seeds the fault PRNG; 0 means 1 (stay deterministic by default).
	Seed int64
	// DropProb is the per-write probability that the frame is silently
	// discarded: the write reports full success, the peer sees nothing.
	DropProb float64
	// ResetProb is the per-operation probability of a mid-frame reset: a
	// write delivers a random prefix and the connection dies; a read fails
	// immediately.
	ResetProb float64
	// StallProb is the per-operation probability of holding the operation
	// for StallFor before proceeding.
	StallProb float64
	// StallFor is the stall duration; defaults to 200ms when StallProb > 0.
	StallFor time.Duration
	// Latency is added to every read and write (one-way).
	Latency time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) on top of Latency.
	Jitter time.Duration
	// BandwidthBps throttles transfers: each operation additionally sleeps
	// bytes×8/BandwidthBps. 0 means unthrottled.
	BandwidthBps float64
	// Outages are scripted total-loss windows relative to the epoch.
	Outages []Outage
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Drops, Resets, Stalls, OutageFailures, Dials uint64
}

// Injector applies one Profile to any number of wrapped connections.
type Injector struct {
	prof Profile

	mu    sync.Mutex
	rng   *rand.Rand
	epoch time.Time

	forced atomic.Bool

	drops, resets, stalls, outageFails, dials atomic.Uint64
}

// New builds an injector with its epoch at now.
func New(prof Profile) *Injector {
	seed := prof.Seed
	if seed == 0 {
		seed = 1
	}
	if prof.StallProb > 0 && prof.StallFor <= 0 {
		prof.StallFor = 200 * time.Millisecond
	}
	return &Injector{
		prof:  prof,
		rng:   rand.New(rand.NewSource(seed)),
		epoch: time.Now(),
	}
}

// ResetClock restarts the outage schedule: windows are re-interpreted
// relative to now.
func (in *Injector) ResetClock() {
	in.mu.Lock()
	in.epoch = time.Now()
	in.mu.Unlock()
}

// ForceOutage overrides the schedule: while on, the link is down regardless
// of the scripted windows. Tests use this to toggle outages exactly.
func (in *Injector) ForceOutage(on bool) { in.forced.Store(on) }

// Down reports whether the link is currently in an outage.
func (in *Injector) Down() bool {
	if in.forced.Load() {
		return true
	}
	if len(in.prof.Outages) == 0 {
		return false
	}
	in.mu.Lock()
	elapsed := time.Since(in.epoch)
	in.mu.Unlock()
	for _, w := range in.prof.Outages {
		if elapsed >= w.Start && elapsed < w.End {
			return true
		}
	}
	return false
}

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Drops:          in.drops.Load(),
		Resets:         in.resets.Load(),
		Stalls:         in.stalls.Load(),
		OutageFailures: in.outageFails.Load(),
		Dials:          in.dials.Load(),
	}
}

// decide draws the per-operation fault decisions in one lock acquisition:
// which fault (if any) fires, and the jitter fraction.
type decision struct {
	drop, reset, stall bool
	jitterFrac         float64
	resetFrac          float64
}

func (in *Injector) decide(isWrite bool) decision {
	p := &in.prof
	var d decision
	if p.DropProb == 0 && p.ResetProb == 0 && p.StallProb == 0 && p.Jitter == 0 {
		return d
	}
	in.mu.Lock()
	if isWrite && p.DropProb > 0 && in.rng.Float64() < p.DropProb {
		d.drop = true
	}
	if p.ResetProb > 0 && in.rng.Float64() < p.ResetProb {
		d.reset = true
		d.resetFrac = in.rng.Float64()
	}
	if p.StallProb > 0 && in.rng.Float64() < p.StallProb {
		d.stall = true
	}
	if p.Jitter > 0 {
		d.jitterFrac = in.rng.Float64()
	}
	in.mu.Unlock()
	return d
}

// Wrap returns nc with the injector's faults applied to every operation.
func (in *Injector) Wrap(nc net.Conn) net.Conn {
	return &conn{Conn: nc, in: in}
}

// Listen wraps lis so every accepted connection is fault-injected; Accept
// itself is never faulted (the kernel completes handshakes regardless).
func (in *Injector) Listen(lis net.Listener) net.Listener {
	return &listener{Listener: lis, in: in}
}

// DialFunc wraps base (nil = net.DialTimeout over TCP) with the injector:
// dials fail fast during outages and returned connections are wrapped.
func (in *Injector) DialFunc(base func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	if base == nil {
		base = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		in.dials.Add(1)
		if in.Down() {
			in.outageFails.Add(1)
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrLinkDown}
		}
		nc, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.Wrap(nc), nil
	}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(nc), nil
}

// conn is one fault-injected connection. It tracks the deadlines itself so
// injected sleeps can be capped at the caller's time budget.
type conn struct {
	net.Conn
	in *Injector

	mu           sync.Mutex
	rdead, wdead time.Time
	killed       atomic.Bool
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdead, c.wdead = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdead = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdead = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *conn) deadline(isWrite bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if isWrite {
		return c.wdead
	}
	return c.rdead
}

// sleep pauses for d, capped so it never runs past the operation's
// deadline. It reports false when the deadline was hit.
func (c *conn) sleep(d time.Duration, isWrite bool) bool {
	if d <= 0 {
		return true
	}
	ok := true
	if dl := c.deadline(isWrite); !dl.IsZero() {
		if rest := time.Until(dl); rest < d {
			d, ok = rest, false
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
	return ok
}

// timeoutError mirrors the net package's deadline failure so callers using
// net.Error.Timeout() (the client's retry filter) classify injected
// timeouts the same way as real ones.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultlink: injected timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// fail builds the error for a faulted operation.
func opError(op string, err error) error {
	return &net.OpError{Op: op, Net: "tcp", Err: err}
}

// delay applies latency, jitter, and the bandwidth throttle for n bytes.
// It reports false when the deadline was consumed by the delay.
func (c *conn) delay(n int, d decision, isWrite bool) bool {
	p := &c.in.prof
	total := p.Latency
	if p.Jitter > 0 {
		total += time.Duration(d.jitterFrac * float64(p.Jitter))
	}
	if p.BandwidthBps > 0 && n > 0 {
		total += time.Duration(float64(n*8) / p.BandwidthBps * float64(time.Second))
	}
	return c.sleep(total, isWrite)
}

func (c *conn) Read(b []byte) (int, error) {
	if c.in.Down() {
		c.in.outageFails.Add(1)
		return 0, opError("read", ErrLinkDown)
	}
	if c.killed.Load() {
		return 0, opError("read", ErrInjectedReset)
	}
	d := c.in.decide(false)
	if d.reset {
		c.in.resets.Add(1)
		c.killed.Store(true)
		c.Conn.Close()
		return 0, opError("read", ErrInjectedReset)
	}
	if d.stall {
		c.in.stalls.Add(1)
		if !c.sleep(c.in.prof.StallFor, false) {
			return 0, opError("read", timeoutError{})
		}
	}
	n, err := c.Conn.Read(b)
	if c.in.Down() {
		// The link went down while the read was blocked: whatever arrived
		// is lost with it.
		c.in.outageFails.Add(1)
		return 0, opError("read", ErrLinkDown)
	}
	if err == nil && !c.delay(n, d, false) {
		// Latency consumed the rest of the budget: the bytes are
		// delivered, but a pipelined follow-up will see the deadline.
		return n, nil
	}
	return n, err
}

func (c *conn) Write(b []byte) (int, error) {
	if c.in.Down() {
		c.in.outageFails.Add(1)
		return 0, opError("write", ErrLinkDown)
	}
	if c.killed.Load() {
		return 0, opError("write", ErrInjectedReset)
	}
	d := c.in.decide(true)
	if d.drop {
		// The frame evaporates: full success reported, nothing sent. The
		// peer's read must run into its own deadline, as with a frame lost
		// on the air.
		c.in.drops.Add(1)
		return len(b), nil
	}
	if d.reset {
		// Mid-frame reset: deliver a prefix, then kill the connection.
		c.in.resets.Add(1)
		c.killed.Store(true)
		prefix := int(d.resetFrac * float64(len(b)))
		if prefix > 0 {
			c.Conn.Write(b[:prefix])
		}
		c.Conn.Close()
		return prefix, opError("write", ErrInjectedReset)
	}
	if d.stall {
		c.in.stalls.Add(1)
		if !c.sleep(c.in.prof.StallFor, true) {
			return 0, opError("write", timeoutError{})
		}
	}
	if !c.delay(len(b), d, true) {
		return 0, opError("write", timeoutError{})
	}
	return c.Conn.Write(b)
}
