package obs

import (
	"math"
	"testing"
	"time"
)

func TestSpanStagesAndAttribution(t *testing.T) {
	tr := NewTracer(8, 1)
	// The caller owns the clock: one reading per stage boundary, handed in.
	t0 := time.Now()
	t1, t2 := t0.Add(time.Millisecond), t0.Add(3*time.Millisecond)
	sp := tr.StartAt("range", t0)
	sp.SetScheme("fully-client")
	sp.Lap(StagePlan, t1.Sub(t0).Seconds())
	sp.Lap(StageIndexWalk, t2.Sub(t1).Seconds())
	sp.Lap(StageWire, 0.5)
	sp.Attribute(StageWire, 2.0, 1e6)
	sp.FinishAt(t2)

	if sp.Laps[StagePlan].Seconds != 0.001 || sp.Laps[StageIndexWalk].Seconds != 0.002 {
		t.Errorf("stage laps = %+v, want 1 ms plan and 2 ms index-walk", sp.Laps)
	}
	if !sp.Start.Equal(t0) || !sp.End.Equal(t2) || sp.TotalSeconds() != 0.003 {
		t.Errorf("span runs %v..%v (%g s), want the supplied readings", sp.Start, sp.End, sp.TotalSeconds())
	}
	if sp.Laps[StageWire].Seconds != 0.5 || sp.Laps[StageWire].Joules != 2.0 {
		t.Errorf("wire lap = %+v", sp.Laps[StageWire])
	}
	if sp.TotalJoules() != 2.0 {
		t.Errorf("total joules = %g, want 2", sp.TotalJoules())
	}
}

// TestSpanLifecycleZeroAlloc: a span that neither the ring nor the exemplar
// table retains goes back to the pool, and nothing on the way — the exemplar
// key included — touches the heap.
func TestSpanLifecycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tr := NewTracer(4, 1000000) // ring effectively never samples
	slow := tr.StartAt("range", time.Now().Add(-time.Hour))
	slow.SetScheme("server-ids")
	slow.Finish() // holds the (server-ids, range) exemplar slot from here on
	if n := testing.AllocsPerRun(200, func() {
		sp := tr.Start("range")
		sp.SetScheme("server-ids")
		sp.Lap(StageIndexWalk, 1e-6)
		sp.Finish()
	}); n != 0 {
		t.Fatalf("Start..Finish of an unretained span: %.2f allocs/op, want 0", n)
	}
}

// TestTracerRingZeroAlloc: a warm tracer (one lap of the ring behind it)
// copies what it retains into slots it owns, so a span's StartAt → Lap →
// FinishAt allocates nothing over four more laps, each span slower than the last so every one also
// replaces its exemplar, and the server's 1-in-16 sampling keeps the ring
// turning. The retained copies stay whole after their spans recycle.
func TestTracerRingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const capacity, every = 8, 16
	tr := NewTracer(capacity, every)
	kinds := [...]string{"range", "point", "nn"}
	t0 := time.Now()
	span := func(i int) {
		sp := tr.StartAt(kinds[i%len(kinds)], t0)
		sp.SetScheme("server-ids")
		sp.Lap(StageIndexWalk, float64(i+1))
		sp.FinishAt(t0.Add(time.Duration(i+1) * time.Microsecond))
	}
	i := 0
	for ; i < capacity*every; i++ { // one lap: the ring and each exemplar slot made once
		span(i)
	}
	const laps = 4
	if n := testing.AllocsPerRun(laps*capacity*every, func() {
		span(i)
		i++
	}); n != 0 {
		t.Fatalf("warm StartAt..FinishAt: %.3f allocs/op, want 0", n)
	}
	snap := tr.Snapshot()
	if len(snap.Sampled) != capacity || len(snap.Slowest) != len(kinds) {
		t.Fatalf("retained %d sampled and %d slowest, want %d and %d", len(snap.Sampled), len(snap.Slowest), capacity, len(kinds))
	}
	for j, v := range snap.Sampled {
		if len(v.Stages) != 1 || math.Abs(v.Stages[0].Seconds-v.Seconds*1e6) > 1e-6 {
			t.Fatalf("sampled span %d torn: %+v", j, v)
		}
		if j > 0 && v.Seconds <= snap.Sampled[j-1].Seconds {
			t.Fatalf("ring out of order at %d: %+v", j, snap.Sampled)
		}
	}
	for _, v := range snap.Slowest {
		if v.Seconds < float64(i-len(kinds))*1e-6 {
			t.Fatalf("exemplar %s at %g s is not its kind's slowest", v.Kind, v.Seconds)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(100, 4) // every 4th span kept
	for i := 0; i < 40; i++ {
		sp := tr.Start("k")
		sp.SetScheme("s")
		sp.Finish()
	}
	snap := tr.Snapshot()
	if snap.Started != 40 || snap.Finished != 40 {
		t.Errorf("started=%d finished=%d, want 40", snap.Started, snap.Finished)
	}
	if len(snap.Sampled) != 10 {
		t.Errorf("sampled %d spans at 1-in-4 of 40, want 10", len(snap.Sampled))
	}
	if len(snap.Slowest) != 1 || !snap.Slowest[0].Exemplar {
		t.Errorf("slowest = %+v, want one exemplar", snap.Slowest)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4, 1)
	for i := 0; i < 10; i++ {
		sp := tr.Start("k")
		sp.Lap(StagePlan, float64(i+1))
		sp.Finish()
	}
	snap := tr.Snapshot()
	if len(snap.Sampled) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap.Sampled))
	}
	// Oldest surviving first: spans 7,8,9,10 by plan seconds.
	for i, want := range []float64{7, 8, 9, 10} {
		if got := snap.Sampled[i].Stages[0].Seconds; got != want {
			t.Errorf("ring[%d] plan seconds = %g, want %g", i, got, want)
		}
	}
}

func TestTracerExemplarKeepsSlowest(t *testing.T) {
	tr := NewTracer(4, 1000000) // ring effectively never samples
	for _, sec := range []float64{0.1, 3.0, 0.2} {
		sp := tr.Start("range")
		sp.SetScheme("server-ids")
		// Backdate the start so the finished wall time is sec.
		sp.Start = time.Now().Add(-time.Duration(sec * float64(time.Second)))
		sp.Finish()
	}
	snap := tr.Snapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(snap.Slowest))
	}
	if got := snap.Slowest[0].Seconds; got < 2.9 {
		t.Errorf("exemplar seconds = %g, want the slowest (~3.0)", got)
	}
}

func TestDefaultEnergyModel(t *testing.T) {
	em := DefaultEnergyModel()
	if em.ClientHz <= 0 {
		t.Fatal("client clock not set")
	}
	// Table 2's order: transmit is the most expensive state, then receive,
	// then carrier-sense idle (each with the blocked core on top). Where
	// compute falls among them is not Table 2's to say: it is PClient's, and
	// at the calibrated 0.11 W a computing client (0.11 + 0.0198 W, NIC
	// asleep) draws less than a receiving one (0.165 + 0.05 W). An earlier
	// "compute > receive" clause held only for an uncalibrated 0.2 W.
	cj, cc := em.Compute(1)
	wj, _ := em.Wait(1)
	tj, _ := em.Tx(1)
	rj, _ := em.Rx(1)
	if !(tj > rj && rj > wj && wj > 0 && tj > cj && cj > 0) {
		t.Errorf("power ordering tx=%g rx=%g wait=%g compute=%g violates Table 2", tj, rj, wj, cj)
	}
	if cc != em.ClientHz {
		t.Errorf("compute cycles = %g, want ClientHz", cc)
	}
	if sec := em.TxSeconds(1000, 8000); sec != 1.0 {
		t.Errorf("TxSeconds(1000B, 8kbps) = %g, want 1", sec)
	}
	if sec := em.TxSeconds(1000, 0); sec != 0 {
		t.Errorf("TxSeconds with unknown bandwidth = %g, want 0", sec)
	}
}

func TestNICExchangeJoules(t *testing.T) {
	em := DefaultEnergyModel()
	if em.WakeupJoules() <= 0 {
		t.Fatal("wakeup transition should cost energy")
	}
	// The same bytes in one exchange must cost less than in sixteen: the
	// transfer term is identical, only the wakeups differ.
	const bw = 2e6
	one := em.NICExchangeJoules(16*100, 16*400, 1, bw)
	sixteen := em.NICExchangeJoules(16*100, 16*400, 16, bw)
	if diff := sixteen - one; diff <= 0 {
		t.Fatalf("batched exchange not cheaper: %g vs %g", one, sixteen)
	} else if want := 15 * em.WakeupJoules(); diff < want*0.999 || diff > want*1.001 {
		t.Fatalf("exchange delta %g, want 15 wakeups = %g", diff, want)
	}
	// Unknown bandwidth: wakeups still charged, transfer free.
	if got, want := em.NICExchangeJoules(1000, 1000, 3, 0), 3*em.WakeupJoules(); got != want {
		t.Fatalf("no-bandwidth pricing = %g, want %g", got, want)
	}
}
