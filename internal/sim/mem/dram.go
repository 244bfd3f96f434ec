package mem

import (
	"fmt"

	"photon/internal/obs"
	"photon/internal/sim/event"
)

// DRAMConfig describes the banked DRAM timing model.
type DRAMConfig struct {
	Name  string
	Banks int
	// Latency is what every access pays once its bank accepts it (precharge
	// + activate + CAS). There is no row-buffer model: lines interleave
	// across banks at cache-line granularity, so with the 32 or 64 banks the
	// GPU configurations use, a row's lines all sit in different banks and
	// an open row would never be hit (DESIGN.md, timing-model semantics).
	Latency event.Time
	// BurstCycles is the minimum spacing between accesses to one bank; the
	// resulting queueing delay is the main source of memory contention.
	BurstCycles event.Time
}

// Validate checks the configuration.
func (c DRAMConfig) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: dram %q: bank count %d must be a positive power of two", c.Name, c.Banks)
	}
	return nil
}

// DRAM is a banked memory timing model: per-bank burst queueing plus one
// fixed latency. Lines are interleaved across banks at cache-line granularity.
// Like Cache, it keeps plain counters only; Hierarchy.FlushMetrics feeds
// them to an attached registry at kernel end.
type DRAM struct {
	cfg      DRAMConfig
	nextFree []event.Time // per bank: when it accepts its next access

	accesses uint64

	// Registry handle (nil while unwired) and how much of the counter above
	// it already holds since the last Reset.
	mxAccesses  *obs.Counter
	pubAccesses uint64
	lat         latTally
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{cfg: cfg, nextFree: make([]event.Time, cfg.Banks)}
}

// Accesses returns the access count since the last Reset.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// setMetrics attaches the registry-backed stat set.
func (d *DRAM) setMetrics(reg *obs.Registry) {
	d.mxAccesses = reg.Counter("sim_dram_accesses_total")
	d.lat.hist = reg.Histogram("sim_dram_latency_cycles", latBounds)
}

// flushMetrics publishes what the counter gained since the last flush and
// the latencies tallied since.
func (d *DRAM) flushMetrics() {
	d.mxAccesses.Add(d.accesses - d.pubAccesses)
	d.pubAccesses = d.accesses
	d.lat.flush()
}

// Reset clears bank state and statistics.
func (d *DRAM) Reset() {
	clear(d.nextFree)
	d.accesses, d.pubAccesses = 0, 0
}

// Access implements Lower. It charges the fixed latency plus any queueing
// delay behind earlier accesses to the same bank.
func (d *DRAM) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	d.accesses++
	free := &d.nextFree[(lineAddr/LineSize)&uint64(len(d.nextFree)-1)]
	start := now
	if *free > start {
		start = *free
	}
	*free = start + d.cfg.BurstCycles
	done := start + d.cfg.Latency
	if d.lat.hist != nil {
		d.lat.observe(done - now)
	}
	return done
}
