package obs

import (
	"testing"
)

// The hot paths: what one instrumented request touches. Counter/gauge ops
// are atomic adds, histogram observes take one short mutex, spans read the
// clock at Start and Finish only (stage times are handed in).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1.0)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.00042)
		}
	})
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("hit")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("hit")
	}
}

func BenchmarkSpanLifecycle(b *testing.B) {
	tr := NewTracer(256, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("range")
		sp.SetScheme("server-ids")
		sp.Lap(StagePlan, 1e-6)
		sp.Lap(StageIndexWalk, 1e-5)
		sp.Attribute(StageIndexWalk, 1e-4, 1e3)
		sp.Finish()
	}
}

func BenchmarkSpanLifecycleNil(b *testing.B) {
	// The disabled-observability path: every call no-ops on nil.
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("range")
		sp.SetScheme("server-ids")
		sp.Lap(StagePlan, 1e-6)
		sp.Lap(StageIndexWalk, 1e-5)
		sp.Attribute(StageIndexWalk, 1e-4, 1e3)
		sp.Finish()
	}
}
