package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Error("same name returned distinct counters")
	}
	if r.Gauge("a") != r.Gauge("a") || r.Histogram("a") != r.Histogram("a") {
		t.Error("gauge/histogram handles not stable")
	}
	c1.Inc()
	c1.Add(4)
	if got := c2.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	g := &Gauge{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 4000 {
		t.Errorf("gauge = %g, want 4000", got)
	}
}

func TestName(t *testing.T) {
	if got := Name("x"); got != "x" {
		t.Errorf("Name(x) = %q", got)
	}
	want := `queries_total{scheme="server-ids",kind="range"}`
	if got := Name("queries_total", "scheme", "server-ids", "kind", "range"); got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
}

func TestNilSafety(t *testing.T) {
	// Every handle and the hub must be no-ops when nil: this is what lets
	// instrumented code run without obs-enabled branches.
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		r  *Registry
		tr *Tracer
		hb *Hub
	)
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Summary().Count != 0 {
		t.Error("nil handles returned nonzero values")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned non-nil handles")
	}
	if len(r.Snapshot().Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	sp := tr.Start("k")
	if at := tr.StartAt("k", time.Now()); at != nil || sp != nil {
		t.Error("nil tracer started a span")
	}
	sp.Lap(StageWire, 1)
	sp.Attribute(StageWire, 1, 1)
	sp.SetScheme("s")
	sp.SetErr()
	sp.FinishAt(time.Now())
	sp.Finish()
	if sp.TotalSeconds() != 0 || sp.TotalJoules() != 0 {
		t.Error("nil span returned nonzero totals")
	}
	if tr.Started() != 0 || len(tr.Snapshot().Sampled) != 0 {
		t.Error("nil tracer not empty")
	}
	if hb.Uptime() != 0 {
		t.Error("nil hub uptime nonzero")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(0.25)
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[1].Name != "b" {
		t.Errorf("counters = %+v, want sorted a,b", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 1.5 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Hists) != 1 || snap.Hists[0].Count != 1 || snap.Hists[0].P50 != 0.25 {
		t.Errorf("hists = %+v", snap.Hists)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("served_total", "scheme", "fully-client")).Add(3)
	r.Gauge("link_bw").Set(2e6)
	h := r.Histogram(Name("lat_seconds", "scheme", "server-ids"))
	h.Observe(0.010)
	h.Observe(0.020)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE served_total counter",
		`served_total{scheme="fully-client"} 3`,
		"# TYPE link_bw gauge",
		"link_bw 2e+06",
		"# TYPE lat_seconds summary",
		`lat_seconds{scheme="server-ids",quantile="0.5"}`,
		`lat_seconds{scheme="server-ids"}_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsMsgRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.25)
	r.Histogram("h").Observe(0.5)
	snap := r.Snapshot()

	msg := ToStatsMsg(42, 1e6, snap)
	if err := msg.Validate(); err != nil {
		t.Fatalf("snapshot message invalid: %v", err)
	}
	back := SnapshotFromMsg(msg)
	if len(back.Counters) != 1 || back.Counters[0].Value != 7 {
		t.Errorf("counters = %+v", back.Counters)
	}
	if len(back.Gauges) != 1 || back.Gauges[0].Value != 1.25 {
		t.Errorf("gauges = %+v", back.Gauges)
	}
	if len(back.Hists) != 1 || back.Hists[0].Count != 1 || back.Hists[0].P50 != 0.5 {
		t.Errorf("hists = %+v", back.Hists)
	}
}

func TestStatsMsgSanitizesEmptyHist(t *testing.T) {
	// An empty histogram summarizes to NaN mean/min/max; the wire message
	// must still validate (NaN is a protocol error).
	r := NewRegistry()
	r.Histogram("empty")
	msg := ToStatsMsg(1, 0, r.Snapshot())
	if err := msg.Validate(); err != nil {
		t.Fatalf("empty-histogram snapshot invalid: %v", err)
	}
}

func TestSnapshotAccessors(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("moves_total").Add(7)
	reg.Gauge("shard_count").Set(4)
	reg.Gauge(Name("mutable_pending", "shard", "0")).Set(3)
	reg.Gauge(Name("mutable_pending", "shard", "1")).Set(5)
	reg.Gauge(Name("mutable_pending_max", "shard", "0")).Set(99) // other family, same prefix
	reg.Gauge(Name("mutable_pending", "backend", "a:1")).Set(42) // other label key
	snap := reg.Snapshot()

	if got := snap.Counter("moves_total"); got != 7 {
		t.Fatalf("Counter = %d, want 7", got)
	}
	if got := snap.Gauge("shard_count"); got != 4 {
		t.Fatalf("Gauge = %v, want 4", got)
	}
	if snap.Counter("absent_total") != 0 || snap.Gauge("absent") != 0 {
		t.Fatal("absent rows must read as zero")
	}
	var labels []string
	sum := 0.0
	snap.EachGauge("mutable_pending", "shard", func(label string, v float64) {
		labels = append(labels, label)
		sum += v
	})
	if len(labels) != 2 || labels[0] != "0" || labels[1] != "1" || sum != 8 {
		t.Fatalf("EachGauge visited %v (sum %v), want shards 0 and 1 summing to 8", labels, sum)
	}
}
