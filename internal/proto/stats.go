// stats.go extends the wire catalogue with the observability snapshot pair:
// MsgStatsReq asks the server for its metrics snapshot and MsgStats carries
// it back — counters, gauges, and histogram summaries — so a client (or
// cmd/mqtop) can pull server-side observability over the existing query
// connection instead of needing the HTTP export surface. A snapshot ends at
// its histograms; any bytes after them are refused.
package proto

import (
	"fmt"
	"math"
)

// Snapshot limits: a snapshot is diagnostic, not bulk data.
const (
	// MaxStatsEntries bounds each snapshot section.
	MaxStatsEntries = 4096
	// MaxStatName bounds one metric name (labels included).
	MaxStatName = 256
)

// StatsReqMsg asks the server for a metrics snapshot. Servers answer it like
// a ping — bypassing admission control — so observability stays available
// under overload.
type StatsReqMsg struct {
	ID uint32
}

// Type implements Message.
func (m *StatsReqMsg) Type() MsgType { return MsgStatsReq }

// RequestID implements Message.
func (m *StatsReqMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *StatsReqMsg) Validate() error { return nil }

func (m *StatsReqMsg) appendPayload(b []byte) []byte { return appendUvarint(b, m.ID) }

func (m *StatsReqMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	return d.finish("stats-req")
}

// StatCounter is one monotonic counter in a snapshot.
type StatCounter struct {
	Name  string
	Value uint64
}

// StatGauge is one instantaneous value in a snapshot.
type StatGauge struct {
	Name  string
	Value float64
}

// StatHist is one histogram summary in a snapshot: the headline quantiles of
// an internal/stats log-bucketed histogram, not its buckets.
type StatHist struct {
	Name  string
	Count uint64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// StatsMsg is the server's metrics snapshot.
type StatsMsg struct {
	ID uint32
	// UptimeMicros is the server's time since start in microseconds.
	UptimeMicros uint64
	Counters     []StatCounter
	Gauges       []StatGauge
	Hists        []StatHist
}

// Type implements Message.
func (m *StatsMsg) Type() MsgType { return MsgStats }

// RequestID implements Message.
func (m *StatsMsg) RequestID() uint32 { return m.ID }

// Validate implements Message.
func (m *StatsMsg) Validate() error {
	if len(m.Counters) > MaxStatsEntries || len(m.Gauges) > MaxStatsEntries || len(m.Hists) > MaxStatsEntries {
		return fmt.Errorf("proto: stats snapshot with %d/%d/%d entries exceeds %d",
			len(m.Counters), len(m.Gauges), len(m.Hists), MaxStatsEntries)
	}
	for _, c := range m.Counters {
		if err := checkStatName(c.Name); err != nil {
			return err
		}
	}
	for _, g := range m.Gauges {
		if err := checkStatName(g.Name); err != nil {
			return err
		}
		if math.IsNaN(g.Value) {
			return fmt.Errorf("proto: NaN gauge %q", g.Name)
		}
	}
	for _, h := range m.Hists {
		if err := checkStatName(h.Name); err != nil {
			return err
		}
		for _, v := range [...]float64{h.Mean, h.Min, h.Max, h.P50, h.P95, h.P99} {
			if math.IsNaN(v) {
				return fmt.Errorf("proto: NaN summary field in histogram %q", h.Name)
			}
		}
	}
	return nil
}

func checkStatName(name string) error {
	if name == "" {
		return fmt.Errorf("proto: empty metric name in stats snapshot")
	}
	if len(name) > MaxStatName {
		return fmt.Errorf("proto: metric name of %d bytes exceeds %d", len(name), MaxStatName)
	}
	return nil
}

func appendStatName(b []byte, name string) []byte {
	b = appendU16(b, uint16(len(name)))
	return append(b, name...)
}

func (m *StatsMsg) appendPayload(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = binaryAppendU64(b, m.UptimeMicros)
	b = appendU16(b, uint16(len(m.Counters)))
	for _, c := range m.Counters {
		b = appendStatName(b, c.Name)
		b = binaryAppendU64(b, c.Value)
	}
	b = appendU16(b, uint16(len(m.Gauges)))
	for _, g := range m.Gauges {
		b = appendStatName(b, g.Name)
		b = appendF64(b, g.Value)
	}
	b = appendU16(b, uint16(len(m.Hists)))
	for _, h := range m.Hists {
		b = appendStatName(b, h.Name)
		b = binaryAppendU64(b, h.Count)
		b = appendF64(b, h.Mean)
		b = appendF64(b, h.Min)
		b = appendF64(b, h.Max)
		b = appendF64(b, h.P50)
		b = appendF64(b, h.P95)
		b = appendF64(b, h.P99)
	}
	return b
}

func (m *StatsMsg) decodePayload(b []byte) error {
	d := decoder{b: b}
	m.ID = d.uv32()
	m.UptimeMicros = d.u64()
	if n := int(d.u16()); n > 0 {
		m.Counters = make([]StatCounter, 0, min(n, MaxStatsEntries))
		for i := 0; i < n && d.err == nil; i++ {
			name := string(d.bytes(int(d.u16())))
			m.Counters = append(m.Counters, StatCounter{Name: name, Value: d.u64()})
		}
	}
	if n := int(d.u16()); n > 0 {
		m.Gauges = make([]StatGauge, 0, min(n, MaxStatsEntries))
		for i := 0; i < n && d.err == nil; i++ {
			name := string(d.bytes(int(d.u16())))
			m.Gauges = append(m.Gauges, StatGauge{Name: name, Value: d.f64()})
		}
	}
	if n := int(d.u16()); n > 0 {
		m.Hists = make([]StatHist, 0, min(n, MaxStatsEntries))
		for i := 0; i < n && d.err == nil; i++ {
			m.Hists = append(m.Hists, StatHist{
				Name:  string(d.bytes(int(d.u16()))),
				Count: d.u64(),
				Mean:  d.f64(),
				Min:   d.f64(),
				Max:   d.f64(),
				P50:   d.f64(),
				P95:   d.f64(),
				P99:   d.f64(),
			})
		}
	}
	return d.finish("stats")
}
