// local.go: what the client knows about answering a query at home, and the
// one function that does it. The state is a shipment plus the evidence that
// it still reflects the server's index; the decision over it (DESIGN.md §9) is
//
//	covers?  fresh?  link up?  who asks   runs at   recorded as
//	no       -       yes       anyone     server    fully-server / the raw call
//	no       -       no        anyone     nowhere   the link's error
//	yes      yes     yes       planner    chooser   fully-client | server-ids
//	yes      no      yes       planner    server    fully-server
//	yes      -       yes       raw call   server    the raw call
//	yes      -       no        anyone     client    fallback-local
//
// "Link up" is what the exchange found (breaker open, or a transient failure
// that outlived its retries), never a guess made beforehand. Fresh: every
// server reply stamps the index's epoch hint (0 = no validity view; a
// shipment carries the hint read before it was cut), and a shipment may
// answer by choice only while its epoch is non-zero, equals the
// latest hint, that hint is younger than localMaxAge, and no write has been
// observed since. A degraded answer needs no such proof: stale beats nothing.
package client

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

// localMaxAge bounds how long a shipment may answer by choice without
// hearing from the server: an older hint sends one covered query to the wire,
// whose reply renews it when the epoch is unchanged.
const localMaxAge = time.Second

// localState is replaced whole: readers load one pointer and see a consistent
// {shipment, evidence} pair, writers install a modified copy by
// compare-and-swap.
type localState struct {
	ship *Shipment
	// hint is the latest non-zero epoch hint heard and hintAt its arrival.
	hint   uint64
	hintAt time.Time
	// retired latches once a write is known to have happened since ship was
	// cut (a hint that differs from ship's epoch, or an ack for this client's
	// own write); only a newly fetched shipment starts over. Sticky because
	// neither hints nor replies are ordered (fingerprints; retries, pooled
	// connections): a delayed reply still carrying the old hint cannot prove
	// the write un-happened.
	retired bool
}

// fresh reports whether the shipment provably reflects the server's index as
// of at most maxAge ago.
func (s *localState) fresh(now time.Time, maxAge time.Duration) bool {
	return s.ship.Epoch != 0 && !s.retired && s.hint == s.ship.Epoch && now.Sub(s.hintAt) < maxAge
}

// install makes ship the client's local state. A shipment's own epoch is the
// first hint, as old as the shipment: cutAt is when it was asked for, the
// zero time for one whose age nobody knows (seeded at New) — that one stays
// unproven until a reply carries the same epoch.
func (c *Client) install(ship *Shipment, cutAt time.Time) {
	c.local.Store(&localState{ship: ship, hint: ship.Epoch, hintAt: cutAt})
}

// Shipment returns the installed shipment, nil when the client holds none.
func (c *Client) Shipment() *Shipment {
	if s := c.local.Load(); s != nil {
		return s.ship
	}
	return nil
}

// amend installs a copy of the current state changed by f, unless there is
// nothing left to learn: no state, a shipment that never claimed currency,
// or one already retired.
func (c *Client) amend(f func(*localState)) {
	for {
		s := c.local.Load()
		if s == nil || s.ship.Epoch == 0 || s.retired {
			return
		}
		next := *s
		f(&next)
		if c.local.CompareAndSwap(s, &next) {
			return
		}
	}
}

// noteHint records a reply's epoch hint; 0 carries no information. A hint
// that disagrees with the shipment's epoch proves a server-side write.
func (c *Client) noteHint(epoch uint64) {
	if epoch == 0 {
		return
	}
	c.amend(func(s *localState) {
		s.hint, s.hintAt = epoch, time.Now()
		s.retired = epoch != s.ship.Epoch
	})
}

// retire records an observed write that no hint will announce in time: the
// ack of this client's own insert, move or delete.
func (c *Client) retire() {
	c.amend(func(s *localState) { s.retired = true })
}

// fromWire converts a wire query to the form the local engine and the planner
// take. ok is false for kinds local execution cannot honor.
func fromWire(q *proto.QueryMsg) (scheme.Query, bool) {
	switch q.Kind {
	case proto.KindPoint:
		return scheme.Point(q.Point), true
	case proto.KindRange:
		return scheme.Range(q.Window), true
	case proto.KindNN:
		if q.K > 1 {
			return scheme.KNearest(q.Point, int(q.K)), true
		}
		return scheme.Nearest(q.Point), true
	}
	return scheme.Query{}, false
}

// toWire is fromWire's inverse: a pooled wire query asking for q in the given
// reply mode. The wire carries k in 16 bits; a larger one is refused here, not
// truncated into a smaller question answered as if it were the whole one.
func toWire(q scheme.Query, mode proto.Mode) (*proto.QueryMsg, error) {
	if q.Kind == scheme.NNQuery && q.K > math.MaxUint16 {
		return nil, fmt.Errorf("client: k=%d exceeds wire limit", q.K)
	}
	m := proto.AcquireQuery()
	m.Mode = mode
	switch q.Kind {
	case scheme.PointQuery:
		m.Kind, m.Point, m.Eps = proto.KindPoint, q.Point, scheme.PointEps
	case scheme.RangeQuery:
		m.Kind, m.Window = proto.KindRange, q.Window
	default:
		m.Kind, m.Point, m.K = proto.KindNN, q.Point, uint16(max(q.K, 1))
	}
	return m, nil
}

// degradable reports whether a wire failure invites a local answer: anything
// except a definitive non-transient server verdict (bad request,
// unsupported) — those would fail identically anywhere.
func degradable(err error) bool {
	var em *proto.ErrorMsg
	if errors.As(err, &em) {
		return transientCode(em.Code)
	}
	return true
}

// runLocal is the only way a query runs at the client: ship answers cq, the
// answer's wall time is lapped into sp (nil is fine) as stage — latency, and
// nothing else — and the answer is charged what the one price list says the
// walk costs the Table 3 client, priced fully local as the simulator charges
// the fully-client scheme. A range or point answer is charged the counts
// its own kernel walk tallied (Shipment.answer); a k-NN, whose kernel is not
// the simulator's walk, the instrumented walk counted after the answer
// (Shipment.work). The charge depends on the walk alone, never on the host.
// It is reached for two reasons — chosen (Planner.Execute picked
// fully-client over a fresh shipment) and degraded (degrade, below) — and
// the caller owns the accounting of its reason.
func (c *Client) runLocal(ship *Shipment, cq scheme.Query, sp *obs.Span, stage obs.Stage) (recs []proto.Record, sec, joules float64, err error) {
	w := scheme.Work{Kind: cq.Kind, RecordBytes: ship.recordBytes}
	start := time.Now()
	recs, err = ship.answer(cq, 0, &w.Filter)
	sec = time.Since(start).Seconds()
	sp.Lap(stage, sec)
	if err != nil {
		return nil, sec, 0, err
	}
	if cq.Kind == scheme.NNQuery {
		w = ship.work(cq)
	} else {
		w.Kept(len(recs))
	}
	in := prices.Inputs(scheme.FullyClient, &w, 1)
	in.Client = c.energy
	joules = in.FullyLocalJoules()
	sp.Attribute(stage, joules, in.CFullyLocal)
	return recs, sec, joules, nil
}

// degrade answers cq from the installed shipment after the wire failed with
// cause, and charges the degraded-mode ledger — the same one whoever asked.
// When the failure was the server's verdict rather than the link's, or
// nothing installed covers cq, cause stands and is returned as it came. sp
// is the caller's span when it has one; otherwise the degraded run traces
// itself. Either way the span reads fallback-local.
func (c *Client) degrade(cq scheme.Query, cause error, sp *obs.Span) ([]proto.Record, error) {
	s := c.local.Load()
	if s == nil || !degradable(cause) || !s.ship.Covers(cq) {
		return nil, cause
	}
	if sp == nil && c.hub != nil {
		sp = c.hub.Trace.Start(cq.Kind.String())
		defer sp.Finish()
	}
	sp.SetScheme("fallback-local")
	recs, sec, j, err := c.runLocal(s.ship, cq, sp, obs.StageFallback)
	if err != nil {
		sp.SetErr()
		c.fallbackErrs.Add(1)
		return nil, fmt.Errorf("client: remote failed (%v); local fallback failed: %w", cause, err)
	}
	c.fallbacks.Add(1)
	c.fallbackJ.Add(j)
	c.metrics.fallbacks.Inc()
	c.metrics.fallbackHist.Observe(sec)
	c.metrics.fallbackJoules.Add(j)
	return recs, nil
}
