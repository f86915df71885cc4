package serve

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// The request path runs to completion: a request is served on its
// connection's reader unless more input is already buffered behind it. The
// tests here pin that decision, what it costs, and that everything the path
// promised before it — deadlines, panic containment, counters, histograms,
// span stages, write coalescing — holds on both sides of it.

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(15 * time.Second))
	return nc
}

// roundTrips sends reqs on nc and returns the replies by request id: one at
// a time, each reply read before the next request is written (every request
// is alone on the connection), or as a burst — all frames in a single Write,
// so the server finds input queued behind every frame but the last.
func roundTrips(t *testing.T, nc net.Conn, reqs []proto.Message, burst bool) map[uint32]proto.Message {
	t.Helper()
	replies := make(map[uint32]proto.Message, len(reqs))
	read := func() {
		msg, _, err := proto.ReadMessage(nc)
		if err != nil {
			t.Fatalf("read after %d/%d replies: %v", len(replies), len(reqs), err)
		}
		replies[msg.RequestID()] = msg
	}
	var frames []byte
	for _, req := range reqs {
		var err error
		if frames, err = proto.AppendFrame(frames, req); err != nil {
			t.Fatal(err)
		}
		if !burst {
			if _, err := nc.Write(frames); err != nil {
				t.Fatal(err)
			}
			frames = frames[:0]
			read()
		}
	}
	if burst {
		if _, err := nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		for range reqs {
			read()
		}
	}
	if len(replies) != len(reqs) {
		t.Fatalf("%d distinct replies for %d requests", len(replies), len(reqs))
	}
	return replies
}

func pointQuery(id uint32, timeoutMicros uint32) *proto.QueryMsg {
	return &proto.QueryMsg{ID: id, Kind: proto.KindPoint, Mode: proto.ModeIDs,
		Point: geom.Point{X: 1, Y: 1}, TimeoutMicros: timeoutMicros}
}

// TestMidFrameTickKeepsConnection: a poll tick that fires after part of a
// frame has been consumed must not desynchronise the connection. On the
// paper's 2 Mbps link a 1 KB batch frame spends ~4 ms on the wire, so a frame
// straddling the once-a-second tick is routine, not hostile.
func TestMidFrameTickKeepsConnection(t *testing.T) {
	_, _, _, addr := testWorld(t, nil)
	frame, err := proto.EncodeMessage(pointQuery(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A batch of eight point queries is over 128 payload bytes, so its
	// length takes two bytes and a tick can fall between them.
	batch := &proto.BatchQueryMsg{ID: 42}
	for i := 0; i < 8; i++ {
		batch.Queries = append(batch.Queries, *pointQuery(uint32(i), 0))
	}
	long, err := proto.EncodeMessage(batch)
	if err != nil {
		t.Fatal(err)
	}
	if long[0] < 0x80 {
		t.Fatalf("the batch frame's length takes one byte (% x)", long[:2])
	}
	for name, c := range map[string]struct {
		frame []byte
		cut   int
		want  proto.MsgType
	}{
		"length split":  {long, 1, proto.MsgBatchReply},
		"header split":  {frame, 1, proto.MsgIDList},
		"payload split": {frame, 2 + 10, proto.MsgIDList},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			nc := dialRaw(t, addr)
			if _, err := nc.Write(c.frame[:c.cut]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(readPollInterval + 200*time.Millisecond)
			if _, err := nc.Write(c.frame[c.cut:]); err != nil {
				t.Fatal(err)
			}
			msg, _, err := proto.ReadMessage(nc)
			if err != nil {
				t.Fatalf("frame split across a poll tick lost its connection: %v", err)
			}
			if msg.Type() != c.want || msg.RequestID() != 42 {
				t.Fatalf("got %v id %d, want %v for request 42", msg.Type(), msg.RequestID(), c.want)
			}
		})
	}
}

// TestMidFrameShutdownDropsConnection: a reader holding half a frame is the
// one reader that cannot simply return to its poll; Shutdown must still get
// rid of it promptly.
func TestMidFrameShutdownDropsConnection(t *testing.T) {
	_, _, srv, addr := testWorld(t, nil)
	nc := dialRaw(t, addr)
	// A ping round trip proves the server has the connection registered.
	roundTrips(t, nc, []proto.Message{&proto.PingMsg{ID: 1}}, false)
	frame, err := proto.EncodeMessage(pointQuery(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame[:2+4]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the reader start on the frame
	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= readPollInterval {
		t.Fatalf("drain with a half-read frame took %v, want < %v", elapsed, readPollInterval)
	}
}

// TestLoopbackAllocCeiling is the end-to-end allocation budget of one warm
// exchange over real loopback TCP — client and server both counted, obs hubs
// on both sides as bench/engines.go builds the static stack. What is left is
// the reply the client hands its caller: the message and its one list.
func TestLoopbackAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ds, _, _, addr := testWorld(t, func(cfg *Config) { cfg.Obs = obs.NewHub() })
	c, err := client.New(client.Config{Addr: addr, Conns: 1, Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A window holding several hundred ids: the list that used to be grown
	// one append at a time.
	center := ds.Extent.Center()
	var w geom.Rect
	for half := 1000.0; ; half *= 2 {
		w = geom.Rect{Min: center, Max: center}.Expand(half)
		ids, err := c.RangeIDs(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) >= 500 {
			break
		}
	}
	for name, call := range map[string]func() error{
		"PointIDs": func() error { _, err := c.PointIDs(center, 0); return err },
		"RangeIDs": func() error { _, err := c.RangeIDs(w); return err },
		"KNearest": func() error { _, err := c.KNearest(center, 5); return err },
	} {
		if n := testing.AllocsPerRun(500, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("warm %s exchange: %.0f allocs end to end, want <= 2", name, n)
		}
	}
}

// TestLoneInlineBurstSpawned: the spawn-or-inline choice is made per frame
// from what is buffered behind it, and is visible from outside the process.
func TestLoneInlineBurstSpawned(t *testing.T) {
	const delay = 100 * time.Millisecond
	_, _, srv, addr := testWorld(t, func(cfg *Config) { cfg.testDelay = delay })
	m := &srv.metrics
	nc := dialRaw(t, addr)

	// A client that waits for each reply never gets a goroutine.
	const lone = 3
	var reqs []proto.Message
	for i := 0; i < lone; i++ {
		reqs = append(reqs, pointQuery(uint32(100+i), 0))
	}
	roundTrips(t, nc, reqs, false)
	if in, sp := m.inline.Value(), m.spawned.Value(); in != lone || sp != 0 {
		t.Fatalf("%d lone requests: inline=%d spawned=%d, want %d and 0", lone, in, sp, lone)
	}

	// A burst written before any read keeps its concurrency: every frame
	// with input behind it is spawned, so the burst takes about one delay,
	// not one per request.
	const burst = 6
	reqs = reqs[:0]
	for i := 0; i < burst; i++ {
		reqs = append(reqs, pointQuery(uint32(200+i), 0))
	}
	start := time.Now()
	roundTrips(t, nc, reqs, true)
	elapsed := time.Since(start)
	in, sp := m.inline.Value()-lone, m.spawned.Value()
	if in+sp != burst || sp < burst/2 {
		t.Fatalf("burst of %d: inline=%d spawned=%d, want most of it spawned", burst, in, sp)
	}
	if elapsed >= burst/2*delay {
		t.Fatalf("burst of %d took %v at %v per request: served one after another", burst, elapsed, delay)
	}

	// Both counters travel in the MsgStats snapshot (mqtop's source).
	c := newClient(t, addr, 1)
	snap, err := c.StatsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := findCounter(t, snap, "serve_inline_total"); got != lone+in {
		t.Errorf("snapshot serve_inline_total = %d, want %d", got, lone+in)
	}
	if got := findCounter(t, snap, "serve_spawned_total"); got != sp {
		t.Errorf("snapshot serve_spawned_total = %d, want %d", got, sp)
	}
}

// TestBothBranchesKeepTheContract runs the same requests down each side of
// the decision and expects the same accounting from both: the handler exists
// once, and this is the test that fails if that stops being true.
func TestBothBranchesKeepTheContract(t *testing.T) {
	ds, tree := testDataset(t)
	pool, err := shard.Over(ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	w := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 2000, Y: 2000}}
	want := pool.RangeAppend(nil, w)

	for _, burst := range []bool{false, true} {
		name := map[bool]string{false: "lone", true: "burst"}[burst]

		// Answers, panic containment, counters, histograms, span stages.
		t.Run(name+"/accounting", func(t *testing.T) {
			hub := obs.NewHub()
			hub.Trace = obs.NewTracer(64, 1)
			srv, addr := startServer(t, Config{Pool: &panicPool{localPool: pool}, Master: tree, Obs: hub})
			reqs := []proto.Message{
				&proto.QueryMsg{ID: 1, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
				&proto.QueryMsg{ID: 2, Kind: proto.KindPoint, Mode: proto.ModeFilter, Point: geom.Point{X: 1, Y: 1}}, // panics
				&proto.QueryMsg{ID: 3, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
				&proto.QueryMsg{ID: 4, Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
			}
			replies := roundTrips(t, dialRaw(t, addr), reqs, burst)
			for _, id := range []uint32{1, 3, 4} {
				if lst, ok := replies[id].(*proto.IDListMsg); !ok || !sameIDs(lst.IDs, want) {
					t.Errorf("request %d: wrong answer (%v)", id, replies[id].Type())
				}
			}
			if em, ok := replies[2].(*proto.ErrorMsg); !ok || em.Code != proto.CodeInternal {
				t.Errorf("panicking request answered %v, want an internal error", replies[2].Type())
			}
			// The last flush and the accounting after it race the reply's
			// arrival here; Shutdown waits for every handler to return.
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Fatal(err)
			}

			if st := srv.Stats(); st.Served != 3 || st.Errors != 1 || st.Deadlines != 0 || st.Overloads != 0 {
				t.Errorf("stats %+v, want 3 served and 1 error", st)
			}
			in, sp := srv.metrics.inline.Value(), srv.metrics.spawned.Value()
			if in+sp != 4 || burst != (sp > 0) {
				t.Errorf("inline=%d spawned=%d for a %s run of 4", in, sp, name)
			}
			snap := hub.Reg.Snapshot()
			var exec uint64
			for _, h := range snap.Hists {
				switch {
				case strings.HasPrefix(h.Name, "serve_exec_seconds"):
					exec += h.Count
				case h.Name == "serve_admit_wait_seconds" || h.Name == "serve_write_seconds":
					if h.Count != 4 {
						t.Errorf("%s holds %d samples, want 4", h.Name, h.Count)
					}
				}
			}
			if exec != 4 {
				t.Errorf("serve_exec_seconds histograms hold %d samples, want 4", exec)
			}
			if f, wr := snap.Counter("serve_write_frames_total"), snap.Counter("serve_writes_total"); f != 4 || wr == 0 || wr > 4 {
				t.Errorf("%d frames in %d writes, want 4 frames in 1..4 writes", f, wr)
			}
			spans := hub.Trace.Snapshot().Sampled
			if len(spans) != 4 {
				t.Fatalf("%d sampled spans, want 4", len(spans))
			}
			failed := 0
			for _, sv := range spans {
				stages := map[string]float64{}
				for _, st := range sv.Stages {
					stages[st.Stage] = st.Seconds
				}
				for _, st := range []string{"parse", "index-walk", "serialize"} {
					if stages[st] <= 0 {
						t.Errorf("%s span lacks a timed %s stage: %+v", sv.Kind, st, sv.Stages)
					}
				}
				if sum := stages["parse"] + stages["index-walk"] + stages["serialize"]; sum > sv.Seconds*1.001 || sum < sv.Seconds*0.999 {
					t.Errorf("stages sum to %g s of a %g s span: the readings are not shared", sum, sv.Seconds)
				}
				if sv.Err {
					failed++
				}
			}
			if failed != 1 {
				t.Errorf("%d spans marked failed, want the panicking one", failed)
			}
		})

		// The per-request deadline, checked against the shared reading.
		t.Run(name+"/deadline", func(t *testing.T) {
			srv, addr := startServer(t, Config{Pool: pool, Master: tree, testDelay: 40 * time.Millisecond})
			replies := roundTrips(t, dialRaw(t, addr),
				[]proto.Message{pointQuery(1, 5_000), pointQuery(2, 5_000)}, burst)
			for id, msg := range replies {
				if em, ok := msg.(*proto.ErrorMsg); !ok || em.Code != proto.CodeDeadline {
					t.Errorf("request %d answered %v, want a deadline error", id, msg.Type())
				}
			}
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if st := srv.Stats(); st.Deadlines != 2 || st.Errors != 0 || st.Served != 0 {
				t.Errorf("stats %+v, want 2 deadlines and nothing else", st)
			}
		})
	}
}

// stallConn is a net.Conn whose Write blocks until released, recording what
// each call carried.
type stallConn struct {
	net.Conn
	release chan struct{}
	mu      sync.Mutex
	writes  [][]byte
	armed   int
}

func (s *stallConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), p...))
	s.mu.Unlock()
	<-s.release
	return len(p), nil
}

func (s *stallConn) SetWriteDeadline(time.Time) error {
	s.mu.Lock()
	s.armed++
	s.mu.Unlock()
	return nil
}

// TestWriteCoalescing: frames that land while a flush is in the kernel go out
// together in the next one, and the write deadline is set when less than half
// of it is left — not once per write.
func TestWriteCoalescing(t *testing.T) {
	_, _, srv, _ := testWorld(t, func(cfg *Config) { cfg.Obs = obs.NewHub() })
	sc := &stallConn{release: make(chan struct{})}
	c := &conn{srv: srv, nc: sc}
	now := time.Now()

	flusher := make(chan struct{})
	go func() {
		defer close(flusher)
		c.write(&proto.PingMsg{ID: 1}, now)
	}()
	for { // wait for the flusher to be inside Write
		sc.mu.Lock()
		n := len(sc.writes)
		sc.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Neither of these may block: the active flusher owns the socket.
	c.write(&proto.PingMsg{ID: 2}, now)
	c.write(&proto.PingMsg{ID: 3}, now)
	close(sc.release)
	<-flusher

	one, err := proto.EncodeMessage(&proto.PingMsg{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.writes) != 2 || len(sc.writes[0]) != len(one) || len(sc.writes[1]) != 2*len(one) {
		t.Fatalf("3 frames went out as writes of %d: want one frame, then two together", lens(sc.writes))
	}
	if sc.armed != 1 {
		t.Errorf("write deadline set %d times across two back-to-back writes, want 1", sc.armed)
	}
	reg := srv.cfg.Obs.Reg.Snapshot()
	if f, w := reg.Counter("serve_write_frames_total"), reg.Counter("serve_writes_total"); f != 3 || w != 2 {
		t.Errorf("counters say %d frames in %d writes, want 3 in 2", f, w)
	}

	// With less than half the timeout left the deadline moves again.
	c.write(&proto.PingMsg{ID: 4}, now.Add(writeTimeout/2+time.Second))
	if sc.armed != 2 {
		t.Errorf("write deadline set %d times after it ran down, want 2", sc.armed)
	}
}

func lens(bs [][]byte) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = len(b)
	}
	return out
}
