package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"mobispatial/internal/dataset"
	"mobispatial/internal/obs"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/stack"
)

// TestHeaderNamesMqserveShards: the header reads what a built mqserve
// exports — an updatable pool's per-shard gauges — so against mqserve
// -shards 16 it names 16 shards.
func TestHeaderNamesMqserveShards(t *testing.T) {
	st, err := stack.Server{Dataset: dataset.NYC(), Shards: 16}.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Server.Serve(lis)
	c, err := client.New(client.Config{Addr: lis.Addr().String(), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg, err := c.StatsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, "test", c, msg.UptimeMicros, obs.SnapshotFromMsg(msg), obs.Snapshot{}, 0, false)
	if header, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(header, "  shards 16  ") {
		t.Errorf("header does not name the 16 shards: %q", header)
	}
}
