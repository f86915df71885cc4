// semantic.go: the client half of the two-tier result cache. The degraded-
// mode machinery (fallback.go, shipment.go) already knows how to answer a
// covered query from a local sub-index; the semantic cache reuses it on the
// HAPPY path: when the client holds a shipment whose epoch matches the
// server's most recent epoch hint, a covered query is answered locally and
// the radio stays asleep — the paper's fully-client scheme applied
// opportunistically, per query, with epoch-based invalidation instead of
// blind TTLs.
//
// Freshness protocol: every server reply stamps the current index epoch
// hint (proto list messages carry it; 0 means the server has no validity
// view). The client remembers the latest hint and its arrival time. A local
// answer is allowed only while the shipment's epoch equals that hint AND
// the hint is younger than SemanticMaxAge. Any server-side write changes
// the hint, which permanently retires the shipment (a shipment cannot be
// patched); hint age forces periodic revalidation over the wire even on an
// idle link, bounding staleness when the client has not heard from the
// server at all.
package client

import (
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/proto"
)

// EpochFallback is a Fallback that knows which index epoch its local state
// was built from — the contract the semantic cache needs. *Shipment
// implements it; a PoolFallback does not (its pool is not derived from the
// server's index), which keeps the semantic cache opt-in for exactly the
// state that can prove freshness.
type EpochFallback interface {
	Fallback
	// EpochHint returns the server epoch hint the local state was built
	// at; 0 means unknown (never fresh).
	EpochHint() uint64
}

// wireRecordBytes sizes one proto.Record on the wire (id + 4 coordinates)
// for the saved-traffic estimate of a semantic hit.
const wireRecordBytes = 36

// noteHint records the freshest server epoch hint; 0 carries no
// information and is ignored. A hint that disagrees with the fallback's
// build epoch retires the semantic cache permanently instead of being
// stored: replies are not ordered (retries, pooled connections), so a
// delayed reply still carrying the shipment's epoch may arrive AFTER the
// hint that proved a write — storing it unconditionally would resurrect
// semanticFresh and serve pre-write answers as current.
func (c *Client) noteHint(epoch uint64) {
	if epoch == 0 || c.semFallback == nil {
		return
	}
	if epoch != c.semFallback.EpochHint() {
		c.semRetired.Store(true)
		return
	}
	c.lastHint.Store(epoch)
	c.lastHintAt.Store(time.Now().UnixNano())
}

// semanticFresh reports whether the local shipment may answer cq right now:
// not retired, covered, epoch equal to the server's latest hint, and the
// hint younger than SemanticMaxAge. The retirement check is separate from
// the hint comparison so it holds under racing replies: whatever a stale
// reply managed to store into lastHint, the latch set by the newer hint
// wins.
func (c *Client) semanticFresh(cq core.Query) bool {
	if c.semRetired.Load() {
		return false
	}
	e := c.semFallback.EpochHint()
	if e == 0 || e != c.lastHint.Load() {
		return false
	}
	at := c.lastHintAt.Load()
	if at == 0 || time.Since(time.Unix(0, at)) > c.cfg.SemanticMaxAge {
		return false
	}
	return c.semFallback.Covers(cq)
}

// trySemantic answers q locally when the semantic cache is fresh for it.
// ok=false sends the caller to the wire (which, via the reply's epoch hint,
// is also how freshness gets renewed). On ok=true the pooled q has been
// released and the results follow query()'s shape: records for data mode,
// ids otherwise.
func (c *Client) trySemantic(q *proto.QueryMsg) (ids []uint32, recs []proto.Record, ok bool) {
	if c.semFallback == nil || q.Mode == proto.ModeFilter {
		// Filter mode wants the server's candidate set, not an exact local
		// answer — semantically different, so it always goes to the wire.
		return nil, nil, false
	}
	cq, canLocal := coreQuery(q)
	if !canLocal || !c.semanticFresh(cq) {
		return nil, nil, false
	}
	out, sec, j, err := c.runLocal(c.semFallback, cq, "semcache-local")
	if err != nil {
		return nil, nil, false // let the wire answer (and revalidate)
	}
	mode := q.Mode
	proto.ReleaseMessage(q) // the wire path never runs; the request is done
	c.semHits.Add(1)
	c.semLocalJ.Add(j)
	c.metrics.semHits.Inc()
	c.metrics.semHist.Observe(sec)
	c.metrics.semLocalJoules.Add(j)
	saved := c.savedNICJoules(len(out), mode)
	c.semSavedJ.Add(saved)
	c.metrics.semSavedJoules.Add(saved)

	ids, recs = localAnswer(mode, out)
	return ids, recs, true
}

// savedNICJoules models the radio energy one semantic hit avoided: the
// request/reply exchange that did not happen, priced with the live
// bandwidth estimate like every real exchange in roundTrip.
func (c *Client) savedNICJoules(n int, mode proto.Mode) float64 {
	bw := c.link.estimate().BandwidthBps
	if bw <= 0 {
		bw = 2e6 // the paper's base bandwidth when unmeasured
	}
	resp := proto.IDListBytes(n)
	if mode == proto.ModeData {
		resp = proto.DataListBytes(n, wireRecordBytes)
	}
	return c.energy.NICExchangeJoules(proto.QueryRequestBytes, resp, 1, bw)
}

// SemanticStats is the semantic cache's accounting: local answers served,
// the modeled compute Joules they cost, and the modeled NIC Joules the
// avoided exchanges would have cost. SavedNICJoules − LocalJoules is the
// client's net energy win, the same compute-vs-radio trade the paper's
// partitioning model prices.
type SemanticStats struct {
	Hits           uint64
	LocalJoules    float64
	SavedNICJoules float64
}

// Semantic returns the semantic-cache accounting snapshot.
func (c *Client) Semantic() SemanticStats {
	return SemanticStats{
		Hits:           c.semHits.Load(),
		LocalJoules:    c.semLocalJ.Value(),
		SavedNICJoules: c.semSavedJ.Value(),
	}
}
