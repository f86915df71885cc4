// cluster.go is the router-facing side of the client: deadline-capped,
// append-first query calls the coordinator (internal/router) drives its
// backend legs through. Unlike the mobile-facing calls (Range, KNearest,
// ...), these copy replies into caller-owned buffers and release the pooled
// reply message before returning, so a router serving thousands of fan-outs
// per second recycles every message shell. None of them degrade to the local
// state — a router leg that fails must surface the failure so the router
// can fail over to a replica, not answer from a stale local index.
package client

import (
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
)

// queryAppendUntil runs one id-mode query leg: send, append the reply's ids
// to dst, release the pooled reply.
func (c *Client) queryAppendUntil(q *proto.QueryMsg, dst []uint32, deadline time.Time) ([]uint32, error) {
	r, err := call[*proto.IDListMsg](c, q, deadline, 1, nil)
	if err != nil {
		return dst, err
	}
	dst = append(dst, r.IDs...)
	proto.ReleaseMessage(r)
	return dst, nil
}

// RangeAppendUntil answers a window query leg in the given mode (ModeIDs or
// ModeFilter), appending matching ids to dst, honoring deadline across the
// whole retry loop.
func (c *Client) RangeAppendUntil(dst []uint32, w geom.Rect, mode proto.Mode, deadline time.Time) ([]uint32, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Window = proto.KindRange, mode, w
	return c.queryAppendUntil(q, dst, deadline)
}

// PointAppendUntil answers a point query leg (eps 0 = server default;
// ModeFilter requests the unrefined candidate set).
func (c *Client) PointAppendUntil(dst []uint32, pt geom.Point, eps float64, mode proto.Mode, deadline time.Time) ([]uint32, error) {
	q := proto.AcquireQuery()
	q.Kind, q.Mode, q.Point, q.Eps = proto.KindPoint, mode, pt, eps
	return c.queryAppendUntil(q, dst, deadline)
}

// QueryBatchVisit sends one batch leg — a sub-slice of a client batch the
// router grouped onto this backend, or one k-NN leg in ModeCandidates with
// the router's running bound in Eps — and visits each item's answer in order:
// visit(i, item), where i indexes qs. The item aliases the pooled reply and
// is valid only during the visit call; the caller copies what it keeps. ID
// and TimeoutMicros fields of qs are managed here. Like every cluster-side
// call, an exchange failure surfaces as an error (no local fallback) so the
// router can fail over to replica holders.
func (c *Client) QueryBatchVisit(qs []proto.QueryMsg, deadline time.Time, visit func(i int, it *proto.BatchItem)) error {
	if len(qs) == 0 {
		return nil
	}
	r, err := c.batchCall(qs, deadline, false)
	if err != nil {
		return err
	}
	for i := range r.Items {
		visit(i, &r.Items[i])
	}
	proto.ReleaseMessage(r)
	return nil
}

// Summary fetches the backend's partition summary — the router's
// registration handshake. The reply is caller-owned (summaries are not
// pooled; registration is rare).
func (c *Client) Summary() (*proto.SummaryMsg, error) {
	return call[*proto.SummaryMsg](c, &proto.SummaryReqMsg{}, time.Time{}, 0, nil)
}
