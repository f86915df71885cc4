package cpu

import (
	"fmt"

	"mobispatial/internal/cache"
	"mobispatial/internal/ops"
)

// ServerConfig is the resource-rich server of Table 4: a 4-issue SimpleScalar-
// style superscalar at 1 GHz with 32 KB 2-way L1 caches (64 B lines) and a
// 1 MB 2-way unified L2 (128 B lines). Only performance cycles are modeled —
// the paper assumes the wall-powered server has no energy constraint (§5.3).
type ServerConfig struct {
	ClockHz float64
	// IssueWidth is the superscalar width (Table 4: ILP = 4).
	IssueWidth int
	// IPCEfficiency derates the peak issue width for this pointer-chasing
	// integer workload (branch misprediction, RUU stalls); the effective
	// IPC is IssueWidth × IPCEfficiency.
	IPCEfficiency float64
	ICache        cache.Config
	DCache        cache.Config
	L2            cache.Config
	// L2Latency is the L1-miss service time in cycles when the line hits
	// in L2.
	L2Latency int
	// MemLatency is the L2-miss service time in cycles.
	MemLatency int
	// OverlapFactor is the fraction of miss latency the out-of-order core
	// hides (0 = fully exposed, 1 = fully hidden).
	OverlapFactor float64
}

// DefaultServerConfig returns Table 4 with a 1 GHz clock.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ClockHz:       1e9,
		IssueWidth:    4,
		IPCEfficiency: 0.65, // ~2.6 IPC on integer index code
		ICache:        cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 2},
		DCache:        cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 2},
		L2:            cache.Config{SizeBytes: 1024 * 1024, LineBytes: 128, Assoc: 2},
		L2Latency:     12,
		MemLatency:    100,
		OverlapFactor: 0.4,
	}
}

// Server is the SimpleScalar-style server model. It implements ops.Recorder
// and produces only cycles (plus activity for completeness).
type Server struct {
	cfg        ServerConfig
	icache     *cache.Cache
	dcache     *cache.Cache
	l2         *cache.Cache
	act        Activity
	fracCycles float64 // fractional-cycle carry from instruction issue
	opCodeBase [ops.NumOps]uint64
}

// NewServer builds a server model.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.ClockHz <= 0 || cfg.IssueWidth <= 0 || cfg.IPCEfficiency <= 0 || cfg.IPCEfficiency > 1 {
		return nil, fmt.Errorf("cpu: bad server core config %+v", cfg)
	}
	for _, cc := range []cache.Config{cfg.ICache, cfg.DCache, cfg.L2} {
		if err := cc.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.L2Latency <= 0 || cfg.MemLatency <= 0 || cfg.OverlapFactor < 0 || cfg.OverlapFactor >= 1 {
		return nil, fmt.Errorf("cpu: bad server memory config %+v", cfg)
	}
	s := &Server{
		cfg:    cfg,
		icache: cache.New(cfg.ICache),
		dcache: cache.New(cfg.DCache),
		l2:     cache.New(cfg.L2),
	}
	s.icache.Lower = s.l2
	s.dcache.Lower = s.l2
	s.opCodeBase = codeLayout(uint64(cfg.ICache.LineBytes))
	return s, nil
}

// Config returns the server configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// ClockHz returns the server clock.
func (s *Server) ClockHz() float64 { return s.cfg.ClockHz }

// Op implements ops.Recorder.
func (s *Server) Op(op ops.Op, n int) {
	if n <= 0 {
		return
	}
	cost := opCosts[op]
	instr := int64(cost.Instr) * int64(n)
	s.act.Instructions += instr

	// Issue cycles at the derated IPC, carrying the fractional remainder.
	ipc := float64(s.cfg.IssueWidth) * s.cfg.IPCEfficiency
	s.fracCycles += float64(instr) / ipc
	whole := int64(s.fracCycles)
	s.fracCycles -= float64(whole)
	s.act.Cycles += whole

	s.act.ICache.Accesses += instr
	s.act.ICache.Reads += instr
	l2Before := s.l2.Stats().Misses
	_, misses := s.icache.Access(s.opCodeBase[op], cost.CodeBytes(), false)
	s.chargeMisses(int64(misses), s.l2.Stats().Misses-l2Before)
}

// Load implements ops.Recorder.
func (s *Server) Load(addr uint64, size int) { s.dataAccess(addr, size, false) }

// Store implements ops.Recorder.
func (s *Server) Store(addr uint64, size int) { s.dataAccess(addr, size, true) }

func (s *Server) dataAccess(addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	l2Before := s.l2.Stats().Misses
	accesses, misses := s.dcache.Access(addr, size, write)
	s.act.DCache.Accesses += int64(accesses)
	if write {
		s.act.DCache.Writes += int64(accesses)
	} else {
		s.act.DCache.Reads += int64(accesses)
	}
	s.act.DCache.Misses += int64(misses)
	s.chargeMisses(int64(misses), s.l2.Stats().Misses-l2Before)
}

// chargeMisses adds the exposed portion of L1/L2 miss latency. l1Misses that
// hit in L2 cost L2Latency; the l2Misses subset costs MemLatency instead.
func (s *Server) chargeMisses(l1Misses, l2Misses int64) {
	if l1Misses == 0 {
		return
	}
	l2Hits := l1Misses - l2Misses
	if l2Hits < 0 {
		l2Hits = 0
	}
	exposed := 1 - s.cfg.OverlapFactor
	stall := int64(exposed * (float64(l2Hits)*float64(s.cfg.L2Latency) +
		float64(l2Misses)*float64(s.cfg.MemLatency)))
	s.act.Cycles += stall
	s.act.StallCycles += stall
	s.act.MemReads += l2Misses
}

// Activity returns the accumulated activity.
func (s *Server) Activity() Activity {
	act := s.act
	act.ICache.Misses = s.icache.Stats().Misses
	act.L2 = s.l2.Stats()
	act.MemWrites = s.l2.Stats().WriteBack
	return act
}

// Cycles returns the accumulated server cycles (the paper's Cw2).
func (s *Server) Cycles() int64 { return s.act.Cycles }

// Seconds converts cycles to wall time at the server clock.
func (s *Server) Seconds(cycles int64) float64 { return float64(cycles) / s.cfg.ClockHz }

// Reset clears activity and cache contents.
func (s *Server) Reset() {
	s.act = Activity{}
	s.fracCycles = 0
	s.icache.Reset()
	s.dcache.Reset()
	s.l2.Reset()
}

// ResetActivity clears counters but keeps the caches warm (the paper assumes
// server-side locality keeps index and data cached, §5.3).
func (s *Server) ResetActivity() {
	s.act = Activity{}
	s.fracCycles = 0
	s.icache.ResetStatsOnly()
	s.dcache.ResetStatsOnly()
	s.l2.ResetStatsOnly()
}
