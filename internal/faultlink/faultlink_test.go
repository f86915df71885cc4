package faultlink

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// pipe builds a wrapped client conn talking to a plain echo server over
// loopback TCP; the echo loop copies reads straight back.
func pipe(t *testing.T, in *Injector) net.Conn {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				buf := make([]byte, 4096)
				for {
					n, err := nc.Read(buf)
					if err != nil {
						return
					}
					if _, err := nc.Write(buf[:n]); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	nc, err := in.DialFunc(nil)(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

func echo(t *testing.T, nc net.Conn, payload []byte) error {
	t.Helper()
	if _, err := nc.Write(payload); err != nil {
		return err
	}
	got := make([]byte, len(payload))
	for off := 0; off < len(got); {
		n, err := nc.Read(got[off:])
		if err != nil {
			return err
		}
		off += n
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo corrupted: got %q want %q", got, payload)
	}
	return nil
}

func TestCleanProfilePassesThrough(t *testing.T) {
	nc := pipe(t, New(Profile{}))
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := echo(t, nc, []byte("hello fault-free world")); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyDelaysOperations(t *testing.T) {
	in := New(Profile{Latency: 30 * time.Millisecond})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	start := time.Now()
	if err := echo(t, nc, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	// One write delay + one read delay, at least.
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~60ms of injected latency", elapsed)
	}
}

func TestDropStarvesTheReader(t *testing.T) {
	in := New(Profile{DropProb: 1})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(100 * time.Millisecond))
	n, err := nc.Write([]byte("lost"))
	if err != nil || n != 4 {
		t.Fatalf("dropped write reported (%d, %v), want full fake success", n, err)
	}
	buf := make([]byte, 16)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("read returned data for a dropped frame")
	} else {
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("read error %v, want a deadline timeout", err)
		}
	}
	if st := in.Stats(); st.Drops != 1 {
		t.Fatalf("drops = %d, want 1", st.Drops)
	}
}

func TestResetKillsMidFrame(t *testing.T) {
	in := New(Profile{ResetProb: 1})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(time.Second))
	if _, err := nc.Write([]byte("doomed frame")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write error %v, want ErrInjectedReset", err)
	}
	// The connection stays dead afterwards.
	if _, err := nc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset write error %v, want ErrInjectedReset", err)
	}
	if st := in.Stats(); st.Resets == 0 {
		t.Fatal("reset not counted")
	}
}

func TestStallRespectsDeadline(t *testing.T) {
	in := New(Profile{StallProb: 1, StallFor: 10 * time.Second})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(80 * time.Millisecond))
	start := time.Now()
	_, err := nc.Write([]byte("stalled"))
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stalled write error %v, want timeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("stall held the operation %v past its 80ms deadline", elapsed)
	}
}

func TestThrottleSlowsBulkTransfer(t *testing.T) {
	// 1 Mbps: 32 KB takes ~262ms on the wire.
	in := New(Profile{BandwidthBps: 1e6})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	payload := bytes.Repeat([]byte("x"), 32<<10)
	start := time.Now()
	if _, err := nc.Write(payload); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("32KB at 1Mbps took %v, want >= ~262ms", elapsed)
	}
}

func TestForcedOutageFailsFastAndRecovers(t *testing.T) {
	in := New(Profile{})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := echo(t, nc, []byte("before")); err != nil {
		t.Fatal(err)
	}

	in.ForceOutage(true)
	start := time.Now()
	if _, err := nc.Write([]byte("during")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("outage write error %v, want ErrLinkDown", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("outage failure took %v, want immediate", elapsed)
	}
	if _, err := in.DialFunc(nil)("127.0.0.1:1", 100*time.Millisecond); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("outage dial error %v, want ErrLinkDown", err)
	}

	in.ForceOutage(false)
	// The old conn survived (outage failures don't tear down the socket);
	// traffic resumes on it.
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := echo(t, nc, []byte("after")); err != nil {
		t.Fatalf("post-outage echo: %v", err)
	}
	if st := in.Stats(); st.OutageFailures < 2 {
		t.Fatalf("outage failures = %d, want >= 2", st.OutageFailures)
	}
}

// TestOutageFailsABlockedRead: a read already blocked when the link goes
// down must not deliver what arrives during the outage. A reader with no
// deadline can sit in one read for a whole outage; handing it a frame sent
// over the dead link would let a server apply a write whose ack then fails.
func TestOutageFailsABlockedRead(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if peer, err := lis.Accept(); err == nil {
			accepted <- peer
		}
	}()
	in := New(Profile{})
	nc, err := in.DialFunc(nil)(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	peer := <-accepted
	defer peer.Close()

	type result struct {
		n   int
		err error
	}
	read := make(chan result, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := nc.Read(buf) // no deadline: blocks until the peer writes
		read <- result{n, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the read block
	in.ForceOutage(true)
	if _, err := peer.Write([]byte("during")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-read:
		if r.n != 0 || !errors.Is(r.err, ErrLinkDown) {
			t.Fatalf("blocked read during an outage returned (%d, %v), want (0, ErrLinkDown)", r.n, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked read did not return after the peer wrote")
	}
}

func TestScriptedOutageWindow(t *testing.T) {
	in := New(Profile{Outages: []Outage{{Start: 60 * time.Millisecond, End: 160 * time.Millisecond}}})
	nc := pipe(t, in)
	nc.SetDeadline(time.Now().Add(3 * time.Second))
	if err := echo(t, nc, []byte("pre")); err != nil {
		t.Fatalf("before window: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	if !in.Down() {
		t.Skip("scheduling delay pushed the check past the scripted window")
	}
	if _, err := nc.Write([]byte("mid")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("in-window write error %v, want ErrLinkDown", err)
	}
	time.Sleep(120 * time.Millisecond)
	if in.Down() {
		t.Fatal("link still down after the scripted window closed")
	}
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if err := echo(t, nc, []byte("post")); err != nil {
		t.Fatalf("after window: %v", err)
	}
}

func TestDeterministicDecisionSequence(t *testing.T) {
	prof := Profile{Seed: 42, DropProb: 0.3, ResetProb: 0.1, StallProb: 0.2, StallFor: time.Millisecond}
	sequence := func() []decision {
		in := New(prof)
		var ds []decision
		for i := 0; i < 64; i++ {
			ds = append(ds, in.decide(i%2 == 0))
		}
		return ds
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically seeded runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestParseProfile(t *testing.T) {
	prof, err := ParseProfile("lossy,seed=7,drop=0.1,outage=5s+2s")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Seed != 7 || prof.DropProb != 0.1 || prof.ResetProb != 0.02 {
		t.Fatalf("preset+override parse wrong: %+v", prof)
	}
	if len(prof.Outages) != 1 || prof.Outages[0] != (Outage{Start: 5 * time.Second, End: 7 * time.Second}) {
		t.Fatalf("outage parse wrong: %+v", prof.Outages)
	}

	if _, err := ParseProfile("latency=20ms,jitter=5ms,bw=2e6,stall=0.05,stallfor=100ms"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"nope", "drop=2", "outage=5s", "seed=x", "latency=-1s", "x=1", "lossy,flaky"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted a bad spec", bad)
		}
	}
	for name := range Presets() {
		if _, err := ParseProfile(name); err != nil {
			t.Errorf("preset %q does not parse: %v", name, err)
		}
	}
	if s := mustProfile(t, "drop=0.05,latency=10ms").String(); !strings.Contains(s, "drop=0.05") {
		t.Errorf("String() = %q, want drop rendered", s)
	}
}

func mustProfile(t *testing.T, spec string) Profile {
	t.Helper()
	p, err := ParseProfile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
