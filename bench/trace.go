// trace.go records spans in memory and writes them out when the run ends.
// The spans come from the benchmark's own files, around its calls into each
// layer; the program itself is not instrumented.
package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Span names. A rung is named after the layer (module) it calls.
const (
	spanRoundTrip   = "client.roundtrip"
	spanEncodeReq   = "proto.encode_req"
	spanDecodeReq   = "proto.decode_req"
	spanEncodeReply = "proto.encode_reply"
	spanDecodeReply = "proto.decode_reply"
	spanCacheGet    = "qcache.get"
	spanCachePut    = "qcache.put"
	spanFilter      = "rtree.filter"
)

// span is one timed call: the operation it belongs to, the rung's name, its
// start and end in ns since the trace began, and the rung that caused it.
// Rungs are replayed from outside one after another, so a child's interval
// follows its parent's instead of nesting in it; a parent's self time is its
// duration minus its children's durations.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) add(op int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Op: op, Name: name, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// durations returns the sorted durations of the named rung over the
// operations keep accepts (nil keeps all).
func (t *tracer) durations(name string, keep func(op int) bool) []int64 {
	var out []int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && (keep == nil || keep(s.Op)) {
			out = append(out, s.End-s.Start)
		}
	}
	slices.Sort(out)
	return out
}

// p50 is the median duration of the named rung in ns, 0 if it never ran.
func (t *tracer) p50(name string, keep func(op int) bool) float64 {
	return pct(t.durations(name, keep), 0.5)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
