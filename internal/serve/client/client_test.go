package client_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

// scriptedServer accepts connections and answers each request with the
// handler's reply (nil = close the connection).
func scriptedServer(t *testing.T, handler func(n int, req proto.Message) proto.Message) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var reqs atomic.Int64
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				for {
					req, _, err := proto.ReadMessage(nc)
					if err != nil {
						return
					}
					resp := handler(int(reqs.Add(1)), req)
					if resp == nil {
						return
					}
					if _, err := proto.WriteMessage(nc, resp); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return lis.Addr().String()
}

// TestClientRetriesOverload verifies retry-with-backoff: the server refuses
// the first two attempts with CodeOverload, the third succeeds.
func TestClientRetriesOverload(t *testing.T) {
	addr := scriptedServer(t, func(n int, req proto.Message) proto.Message {
		if n <= 2 {
			return &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeOverload, Text: "busy"}
		}
		return &proto.IDListMsg{ID: req.RequestID(), IDs: []uint32{42}}
	})
	c, err := client.New(client.Config{Addr: addr, Conns: 1, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, err := c.PointIDs(geom.Point{X: 1, Y: 1}, 0)
	if err != nil {
		t.Fatalf("query failed despite retries: %v", err)
	}
	if len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("ids = %v", ids)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestClientRetriesDroppedConn verifies a connection killed mid-request is
// retried on a fresh connection.
func TestClientRetriesDroppedConn(t *testing.T) {
	addr := scriptedServer(t, func(n int, req proto.Message) proto.Message {
		if n == 1 {
			return nil // slam the connection shut
		}
		return &proto.IDListMsg{ID: req.RequestID(), IDs: []uint32{7}}
	})
	c, err := client.New(client.Config{Addr: addr, Conns: 1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, err := c.PointIDs(geom.Point{X: 1, Y: 1}, 0)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("ids = %v", ids)
	}
	if c.Retries() == 0 {
		t.Fatal("no retry recorded")
	}
}

// TestClientGivesUpAfterMaxRetries verifies permanent overload surfaces as
// an error after MaxRetries+1 attempts.
func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	var attempts atomic.Int64
	addr := scriptedServer(t, func(n int, req proto.Message) proto.Message {
		attempts.Add(1)
		return &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeOverload, Text: "busy"}
	})
	c, err := client.New(client.Config{Addr: addr, Conns: 1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PointIDs(geom.Point{X: 1, Y: 1}, 0); err == nil {
		t.Fatal("permanently overloaded server reported success")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestClientFailsFastOnBadRequest verifies non-transient server errors are
// not retried.
func TestClientFailsFastOnBadRequest(t *testing.T) {
	var attempts atomic.Int64
	addr := scriptedServer(t, func(n int, req proto.Message) proto.Message {
		attempts.Add(1)
		return &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeBadRequest, Text: "nope"}
	})
	c, err := client.New(client.Config{Addr: addr, Conns: 1, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.PointIDs(geom.Point{X: 1, Y: 1}, 0)
	if err == nil {
		t.Fatal("bad request reported success")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("bad request attempted %d times", got)
	}
	if c.Retries() != 0 {
		t.Fatal("non-transient error was retried")
	}
}

// TestLinkMeasurement verifies pings feed the RTT/bandwidth estimate and
// SetLink overrides it.
func TestLinkMeasurement(t *testing.T) {
	addr := scriptedServer(t, func(n int, req proto.Message) proto.Message {
		return req // echo pings
	})
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	link := c.Link()
	if link.Samples < 2 {
		t.Fatalf("samples = %d", link.Samples)
	}
	if link.RTT <= 0 {
		t.Fatalf("rtt = %v", link.RTT)
	}
	if link.BandwidthBps <= 0 {
		t.Fatalf("bandwidth = %v", link.BandwidthBps)
	}

	c.SetLink(7*time.Millisecond, 123456)
	link = c.Link()
	if link.RTT != 7*time.Millisecond || link.BandwidthBps != 123456 {
		t.Fatalf("override ignored: %+v", link)
	}
	// Further traffic must not disturb an overridden link (simulation mode).
	if _, err := c.Ping(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Link(); got.RTT != 7*time.Millisecond || got.BandwidthBps != 123456 {
		t.Fatalf("override drifted: %+v", got)
	}
}
