// Package cpu provides the machine models that turn the instrumentation
// streams of internal/ops into cycles, following the paper's simulation
// setup (§5): the mobile client is a SimplePower-style single-issue 5-stage
// integer pipeline with split L1 caches (Table 3), and the server is a
// SimpleScalar-style 4-issue superscalar with a two-level cache hierarchy
// (Table 4).
//
// Both models are execution-driven: they implement ops.Recorder, so running
// a query against the R-tree with a model attached *is* the simulation.
// Cycles come out of instruction counts plus simulated cache-miss stalls;
// the activity counters (instructions, cache accesses and misses, memory
// transactions) feed the energy model in internal/energy.
package cpu

import (
	"fmt"

	"mobispatial/internal/cache"
	"mobispatial/internal/ops"
)

// OpCost describes the static cost of one abstract operation: how many
// instructions it executes and the byte size of its straight-line code
// footprint (for the I-cache trace). Footprints are 4 bytes per instruction
// (32-bit RISC encoding, as in the paper's StrongARM-class client).
type OpCost struct {
	Instr int
}

// CodeBytes returns the code footprint of the op.
func (c OpCost) CodeBytes() int { return c.Instr * 4 }

// DefaultOpCosts is the instruction budget per abstract operation. The
// numbers are hand counts of the obvious RISC instruction sequences for each
// operation (loads, compares, branches, FP adds/multiplies) and are in line
// with the magnitudes SimplePower would observe for the same C code.
func DefaultOpCosts() [ops.NumOps]OpCost {
	var t [ops.NumOps]OpCost
	t[ops.OpMBRTest] = OpCost{Instr: 14}   // 4 loads + 4 cmp/branch + loop
	t[ops.OpNodeVisit] = OpCost{Instr: 24} // header decode, stack push/pop
	t[ops.OpDistCalc] = OpCost{Instr: 38}  // MINDIST: clamps + 2 mul + sqrt amortized
	t[ops.OpHeapOp] = OpCost{Instr: 22}    // sift within sorted child list
	// Refinement costs model a full SDBMS refinement pass per candidate —
	// record decode, exact geometry against polyline data, result
	// assembly — which the paper singles out as "quite intensive ...
	// usually the most time consuming" (§3, §7). These are the dominant
	// client-side costs and were calibrated so the fully-at-client range
	// query lands in the paper's regime relative to the offload schemes.
	t[ops.OpRefineRange] = OpCost{Instr: 1900}    // record decode + exact clip of polyline vs window
	t[ops.OpRefinePoint] = OpCost{Instr: 900}     // record decode + incidence test
	t[ops.OpRefineNN] = OpCost{Instr: 1000}       // record decode + exact distance
	t[ops.OpResultAppend] = OpCost{Instr: 6}      // bounds check + store + count
	t[ops.OpCopyWord] = OpCost{Instr: 3}          // load + store + increment
	t[ops.OpProtoPacket] = OpCost{Instr: 1400}    // header build/parse, interrupt, driver
	t[ops.OpProtoByte] = OpCost{Instr: 3}         // checksum + copy into NIC buffer
	t[ops.OpIndexBuildEntry] = OpCost{Instr: 120} // sort share + MBR union + store
	t[ops.OpDispatch] = OpCost{Instr: 900}        // request parse, routine select, reply setup
	return t
}

// opCosts is the instruction table both machines execute.
var opCosts = DefaultOpCosts()

// Activity aggregates what a machine model observed; it is the input to the
// energy model and the source of the cycle count.
type Activity struct {
	Instructions int64
	// Cycles is the total pipeline cycles including stalls.
	Cycles int64
	// StallCycles is the memory-stall portion of Cycles.
	StallCycles int64
	ICache      cache.Stats
	DCache      cache.Stats
	L2          cache.Stats // server only; zero for the client
	// MemReads/MemWrites are DRAM transactions (line fills / write-backs
	// from the lowest cache level).
	MemReads  int64
	MemWrites int64
}

// Add accumulates other into a.
func (a *Activity) Add(other Activity) {
	a.Instructions += other.Instructions
	a.Cycles += other.Cycles
	a.StallCycles += other.StallCycles
	a.ICache = addCacheStats(a.ICache, other.ICache)
	a.DCache = addCacheStats(a.DCache, other.DCache)
	a.L2 = addCacheStats(a.L2, other.L2)
	a.MemReads += other.MemReads
	a.MemWrites += other.MemWrites
}

func addCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:  a.Accesses + b.Accesses,
		Misses:    a.Misses + b.Misses,
		Reads:     a.Reads + b.Reads,
		Writes:    a.Writes + b.Writes,
		WriteBack: a.WriteBack + b.WriteBack,
	}
}

// CPI returns cycles per instruction, or 0 when idle.
func (a Activity) CPI() float64 {
	if a.Instructions == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(a.Instructions)
}

// ClientConfig is the mobile-device configuration of Table 3.
type ClientConfig struct {
	// ClockHz is the client clock. The paper sweeps it as a fraction
	// (1/8 .. 1) of the 1 GHz server clock.
	ClockHz float64
	// ICache / DCache geometries.
	ICache cache.Config
	DCache cache.Config
	// MemLatency is the DRAM access latency in cycles.
	MemLatency int
}

// DefaultClientConfig returns Table 3: single-issue 5-stage pipeline,
// 16 KB/4-way I-cache, 8 KB/4-way D-cache, 32 B lines, 100-cycle memory,
// clocked at serverHz/8 by default (125 MHz).
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		ClockHz:    DefaultServerConfig().ClockHz / 8,
		ICache:     cache.Config{SizeBytes: 16 * 1024, LineBytes: 32, Assoc: 4},
		DCache:     cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 4},
		MemLatency: 100,
	}
}

// Client is the SimplePower-style client model. It implements ops.Recorder.
type Client struct {
	cfg    ClientConfig
	icache *cache.Cache
	dcache *cache.Cache
	act    Activity
	// opCodeBase[i] is the simulated code address of op i's footprint.
	opCodeBase [ops.NumOps]uint64
}

// NewClient builds a client model; it returns an error for invalid cache
// geometry.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("cpu: client clock %v", cfg.ClockHz)
	}
	if err := cfg.ICache.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.DCache.Validate(); err != nil {
		return nil, err
	}
	if cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("cpu: memory latency %d", cfg.MemLatency)
	}
	c := &Client{
		cfg:    cfg,
		icache: cache.New(cfg.ICache),
		dcache: cache.New(cfg.DCache),
	}
	c.opCodeBase = codeLayout(32)
	return c, nil
}

// codeLayout places the op table's footprints from ops.CodeBase, each padded
// to a lineBytes boundary so ops don't share lines.
func codeLayout(lineBytes uint64) (base [ops.NumOps]uint64) {
	addr := ops.CodeBase
	for i := range base {
		base[i] = addr
		addr += uint64(opCosts[i].CodeBytes())
		if rem := addr % lineBytes; rem != 0 {
			addr += lineBytes - rem
		}
	}
	return base
}

// Config returns the client configuration.
func (c *Client) Config() ClientConfig { return c.cfg }

// ClockHz returns the client clock frequency.
func (c *Client) ClockHz() float64 { return c.cfg.ClockHz }

// Op implements ops.Recorder: n executions of op's straight-line code.
func (c *Client) Op(op ops.Op, n int) {
	if n <= 0 {
		return
	}
	cost := opCosts[op]
	instr := int64(cost.Instr) * int64(n)
	c.act.Instructions += instr
	// Single-issue: one cycle per instruction plus stalls added below.
	c.act.Cycles += instr

	// I-cache: each fetch is an I-cache access energy-wise; hit/miss
	// behavior is per line. Only the first of n back-to-back passes over
	// the footprint can miss — every footprint fits in the I-cache and a
	// contiguous region occupies at most two ways per set, so passes 2..n
	// are guaranteed hits and need no simulation.
	c.act.ICache.Accesses += instr // fetch count for energy
	c.act.ICache.Reads += instr
	_, misses := c.icache.Access(c.opCodeBase[op], cost.CodeBytes(), false)
	c.addStall(int64(misses))
}

// addStall adds miss stall cycles.
func (c *Client) addStall(misses int64) {
	stall := misses * int64(c.cfg.MemLatency)
	c.act.Cycles += stall
	c.act.StallCycles += stall
	c.act.MemReads += misses
}

// Load implements ops.Recorder.
func (c *Client) Load(addr uint64, size int) { c.dataAccess(addr, size, false) }

// Store implements ops.Recorder.
func (c *Client) Store(addr uint64, size int) { c.dataAccess(addr, size, true) }

func (c *Client) dataAccess(addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	accesses, misses := c.dcache.Access(addr, size, write)
	c.act.DCache.Accesses += int64(accesses)
	if write {
		c.act.DCache.Writes += int64(accesses)
	} else {
		c.act.DCache.Reads += int64(accesses)
	}
	c.act.DCache.Misses += int64(misses)
	c.addStall(int64(misses))
}

// Activity returns the accumulated activity. The embedded cache.Stats for
// the I-cache count fetches (for energy); the line-granular miss counts are
// folded in via Misses.
func (c *Client) Activity() Activity {
	act := c.act
	// Fold in line-level I-cache miss/write-back counts from the simulator.
	ist := c.icache.Stats()
	act.ICache.Misses = ist.Misses
	act.ICache.WriteBack = ist.WriteBack
	act.DCache.WriteBack = c.dcache.Stats().WriteBack
	act.MemWrites = c.dcache.Stats().WriteBack + ist.WriteBack
	return act
}

// Seconds converts a cycle count to wall time at the client clock.
func (c *Client) Seconds(cycles int64) float64 { return float64(cycles) / c.cfg.ClockHz }

// Reset clears activity and cache state (cold caches).
func (c *Client) Reset() {
	c.act = Activity{}
	c.icache.Reset()
	c.dcache.Reset()
}

// ResetActivity clears the activity counters but keeps cache contents warm —
// used between queries of one session, where the paper's memory-resident
// data stays cached across queries.
func (c *Client) ResetActivity() {
	// Preserve the simulator-internal totals by snapshotting deltas: the
	// caches keep counting, so re-zero our view instead.
	c.icache.ResetStatsOnly()
	c.dcache.ResetStatsOnly()
	c.act = Activity{}
}
