package client_test

import (
	"bufio"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/mutable"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
)

// stampLog is what a stampProxy saw of the epoch stamp: for every read
// request, whether it asked, and for every read reply, the epoch it carried
// (0: none on the wire).
type stampLog struct {
	mu     sync.Mutex
	asked  []bool
	stamps []uint64
}

// take returns and clears what was logged so far.
func (l *stampLog) take() (asked []bool, stamps []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	asked, stamps = l.asked, l.stamps
	l.asked, l.stamps = nil, nil
	return asked, stamps
}

func (l *stampLog) note(m proto.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch m := m.(type) {
	case *proto.QueryMsg:
		l.asked = append(l.asked, m.WantEpoch)
	case *proto.BatchQueryMsg:
		l.asked = append(l.asked, m.WantEpoch)
	case *proto.IDListMsg:
		l.stamps = append(l.stamps, m.Epoch)
	case *proto.DataListMsg:
		l.stamps = append(l.stamps, m.Epoch)
	case *proto.BatchReplyMsg:
		l.stamps = append(l.stamps, m.Epoch)
	}
}

// stampProxy listens on loopback in front of the server at target, decodes
// every frame that crosses it in either direction, logs it and passes it on
// re-encoded (decode→encode is a fixed point, so the bytes are the ones that
// arrived). It returns the log and the address to dial.
func stampProxy(t *testing.T, target string) (*stampLog, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &stampLog{}
	var wg sync.WaitGroup
	pipe := func(dst, src net.Conn) {
		defer wg.Done()
		defer dst.Close()
		r := bufio.NewReader(src)
		for {
			m, _, err := proto.ReadMessage(r)
			if err != nil {
				return
			}
			log.note(m)
			_, err = proto.WriteMessage(dst, m)
			proto.ReleaseMessage(m)
			if err != nil {
				return
			}
		}
	}
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			wg.Add(2)
			go pipe(up, down)
			go pipe(down, up)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return log, lis.Addr().String()
}

// stampWorld serves the freshness dataset from an updatable pool, whose
// server stamps a reply that asks with a non-zero epoch, and puts a
// stampProxy in front of it.
func stampWorld(t *testing.T) (ds *dataset.Dataset, direct string, log *stampLog, proxied string) {
	t.Helper()
	ds, tree := semanticDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatalf("mutable pool: %v", err)
	}
	t.Cleanup(pool.Close)
	direct = startSemServer(t, serve.Config{Pool: pool, Master: tree})
	log, proxied = stampProxy(t, direct)
	return ds, direct, log, proxied
}

// reads runs one of each read a client makes: ids, records and candidates
// of a window, a point's ids, a k-NN, and a batch of two.
func reads(t *testing.T, c *client.Client, ds *dataset.Dataset) (rangeIDs []uint32) {
	t.Helper()
	w, center := centerWindow(ds, 1200), ds.Extent.Center()
	rangeIDs, err := c.RangeIDs(w)
	if err == nil {
		_, err = c.Range(w)
	}
	if err == nil {
		_, err = c.FilterRange(w)
	}
	if err == nil {
		_, err = c.PointIDs(center, 0)
	}
	if err == nil {
		_, err = c.KNearest(center, 4)
	}
	if err == nil {
		_, err = c.QueryBatch([]proto.QueryMsg{
			{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
			{Kind: proto.KindPoint, Mode: proto.ModeData, Point: center},
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return rangeIDs
}

// readsPerCall is how many read exchanges reads makes.
const readsPerCall = 6

// TestPlainClientAsksNoStamp: a client holding no shipment never asks for
// the epoch stamp, by its raw calls, a batch or its planner, and no reply it
// gets carries one, although the server behind it has an epoch to give.
func TestPlainClientAsksNoStamp(t *testing.T) {
	ds, _, log, addr := stampWorld(t)
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reads(t, c, ds)
	if _, err := client.NewPlanner(c).Execute(core.Range(centerWindow(ds, 600))); err != nil {
		t.Fatal(err)
	}
	asked, stamps := log.take()
	if len(asked) != readsPerCall+1 || len(stamps) != len(asked) {
		t.Fatalf("logged %d requests and %d replies, want %d of each", len(asked), len(stamps), readsPerCall+1)
	}
	for i := range asked {
		if asked[i] || stamps[i] != 0 {
			t.Fatalf("exchange %d: asked %v, reply stamped %#x; a plain client asks for nothing and gets nothing", i, asked[i], stamps[i])
		}
	}
}

// TestShipmentHolderGetsStampOnEveryReply: a client holding a shipment that
// claims currency asks on every read, and every reply carries the server's
// epoch, which proves the shipment fresh for the planner. After another
// client's write the next reply's stamp differs from the shipment's epoch,
// the shipment retires, and from then on the client stops asking: no hint
// could bring the shipment back.
func TestShipmentHolderGetsStampOnEveryReply(t *testing.T) {
	ds, direct, log, addr := stampWorld(t)
	ship := fetchWholeShipment(t, direct, ds)
	if ship.Epoch == 0 {
		t.Fatal("unwritten mutable-pool shipment carries no epoch")
	}
	c, err := client.New(client.WithMaxAge(client.Config{Addr: addr, Conns: 1, Shipment: ship}, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slowLink(c)
	p := client.NewPlanner(c)
	q := core.Range(centerWindow(ds, 1200))

	reads(t, c, ds)
	asked, stamps := log.take()
	if len(asked) != readsPerCall || len(stamps) != readsPerCall {
		t.Fatalf("logged %d requests and %d replies, want %d of each", len(asked), len(stamps), readsPerCall)
	}
	for i := range asked {
		if !asked[i] || stamps[i] != ship.Epoch {
			t.Fatalf("exchange %d: asked %v, reply stamped %#x; want asked and the shipment's %#x", i, asked[i], stamps[i], ship.Epoch)
		}
	}
	if plan, _, wire := executeOn(t, c, p, q); plan != client.PlanLocal || wire != 0 {
		t.Fatalf("covered query over a stamped-fresh shipment: plan %v over %d exchanges, want fully-client", plan, wire)
	}

	other, err := client.New(client.Config{Addr: direct, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	const newID = 500000
	if _, err := other.Move(newID, centerSegment(ds)); err != nil {
		t.Fatal(err)
	}
	if ids := reads(t, c, ds); !slices.Contains(ids, newID) {
		t.Fatalf("read after another client's write misses id %d", newID)
	}
	asked, stamps = log.take()
	if len(asked) == 0 || !asked[0] || stamps[0] == 0 || stamps[0] == ship.Epoch {
		t.Fatalf("first read after the write: asked %v, stamps %#x; want asked and a stamp other than %#x", asked, stamps, ship.Epoch)
	}
	for i := 1; i < len(asked); i++ {
		if asked[i] || stamps[i] != 0 {
			t.Fatalf("exchange %d after retirement: asked %v, reply stamped %#x; want neither", i, asked[i], stamps[i])
		}
	}
	if plan, _, wire := executeOn(t, c, p, q); plan == client.PlanLocal || wire != 1 {
		t.Fatalf("covered query over a retired shipment: plan %v over %d exchanges, want the wire", plan, wire)
	}
	if asked, _ := log.take(); len(asked) != 1 || asked[0] {
		t.Fatalf("planner's exchange over a retired shipment asked %v, want one request that does not ask", asked)
	}
}
