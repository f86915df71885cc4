package serve

import (
	"net"
	"strings"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
)

// TestDrainClosesIdleConnsFast: graceful shutdown must close connections
// that are open but idle promptly — their readers block with no deadline, so
// the Shutdown poke is the only thing that wakes them.
func TestDrainClosesIdleConnsFast(t *testing.T) {
	_, _, srv, addr := testWorld(t, nil)

	// Open idle connections and prove the server has registered them by
	// round-tripping a ping on each.
	var conns []net.Conn
	for i := 0; i < 4; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := proto.WriteMessage(nc, &proto.PingMsg{ID: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := proto.ReadMessage(nc); err != nil {
			t.Fatalf("ping reply: %v", err)
		}
		conns = append(conns, nc)
	}

	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("drain with idle conns took %v, want < 1s", elapsed)
	}
	// The server should have closed every idle connection.
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := proto.ReadMessage(nc); err == nil {
			t.Fatal("idle connection still open after drain")
		}
	}
}

func findCounter(t *testing.T, m *proto.StatsMsg, name string) uint64 {
	t.Helper()
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q missing from snapshot", name)
	return 0
}

// TestStatsSnapshotOverWire pulls the in-protocol metrics snapshot after
// real traffic, with observability enabled and disabled.
func TestStatsSnapshotOverWire(t *testing.T) {
	hub := obs.NewHub()
	ds, _, _, addr := testWorld(t, func(cfg *Config) { cfg.Obs = hub })
	c := newClient(t, addr, 2)

	center := ds.Extent.Center()
	for i := 0; i < 8; i++ {
		if _, err := c.RangeIDs(geom.Rect{
			Min: geom.Point{X: center.X - 500, Y: center.Y - 500},
			Max: geom.Point{X: center.X + 500, Y: center.Y + 500},
		}); err != nil {
			t.Fatalf("range: %v", err)
		}
	}

	snap, err := c.StatsSnapshot()
	if err != nil {
		t.Fatalf("stats snapshot: %v", err)
	}
	if snap.UptimeMicros == 0 {
		t.Error("snapshot uptime is zero")
	}
	if got := findCounter(t, snap, "serve_served_total"); got < 8 {
		t.Errorf("serve_served_total = %d, want >= 8", got)
	}
	if findCounter(t, snap, "serve_rx_bytes_total") == 0 {
		t.Error("serve_rx_bytes_total is zero after traffic")
	}
	var execCount uint64
	for _, h := range snap.Hists {
		if strings.HasPrefix(h.Name, "serve_exec_seconds") {
			execCount += h.Count
		}
	}
	if execCount < 8 {
		t.Errorf("serve_exec_seconds total count = %d, want >= 8", execCount)
	}
}

// TestStatsSnapshotWithoutObs: the snapshot must stay useful when the server
// runs without an obs hub — core counters synthesized from the atomics.
func TestStatsSnapshotWithoutObs(t *testing.T) {
	ds, _, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	if _, err := c.PointIDs(ds.Extent.Center(), 0); err != nil {
		t.Fatalf("point: %v", err)
	}
	snap, err := c.StatsSnapshot()
	if err != nil {
		t.Fatalf("stats snapshot: %v", err)
	}
	if got := findCounter(t, snap, "serve_served_total"); got < 1 {
		t.Errorf("serve_served_total = %d, want >= 1", got)
	}
	if len(snap.Hists) != 0 {
		t.Errorf("expected no histograms without obs, got %d", len(snap.Hists))
	}
}

// TestServerSpansSampled: with sampling at 1-in-1, server-side spans land in
// the tracer ring carrying the index-walk stage.
func TestServerSpansSampled(t *testing.T) {
	hub := obs.NewHub()
	hub.Trace = obs.NewTracer(64, 1)
	ds, _, _, addr := testWorld(t, func(cfg *Config) { cfg.Obs = hub })
	c := newClient(t, addr, 2)

	center := ds.Extent.Center()
	for i := 0; i < 5; i++ {
		if _, err := c.PointIDs(center, 0); err != nil {
			t.Fatalf("point: %v", err)
		}
	}

	// A span finishes just after its reply is written, so the last one may
	// still be open when the client has its answer: wait for it.
	snap := hub.Trace.Snapshot()
	for deadline := time.Now().Add(5 * time.Second); len(snap.Sampled) < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		snap = hub.Trace.Snapshot()
	}
	if snap.Started < 5 || len(snap.Sampled) < 5 {
		t.Fatalf("started=%d sampled=%d, want >= 5 each", snap.Started, len(snap.Sampled))
	}
	sawWalk := false
	for _, sv := range snap.Sampled {
		if sv.Kind != "point" {
			t.Errorf("span kind = %q, want point", sv.Kind)
		}
		for _, st := range sv.Stages {
			if st.Stage == "index-walk" && st.Seconds > 0 {
				sawWalk = true
			}
		}
	}
	if !sawWalk {
		t.Error("no span carries a timed index-walk stage")
	}
}
