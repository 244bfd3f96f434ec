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
	// RowBits selects how many consecutive address bits map into one DRAM
	// row (a row is 1<<RowBits bytes).
	RowBits uint
	// RowHitLatency applies when an access targets the currently-open row;
	// RowMissLatency applies otherwise (precharge + activate + CAS).
	RowHitLatency  event.Time
	RowMissLatency event.Time
	// BurstCycles is the minimum spacing between accesses to one bank; the
	// resulting queueing delay is the main source of memory contention.
	BurstCycles event.Time
}

// Validate checks the configuration.
func (c DRAMConfig) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: dram %q: bank count %d must be a positive power of two", c.Name, c.Banks)
	}
	if c.RowBits < 6 {
		return fmt.Errorf("mem: dram %q: rows must hold at least one cache line", c.Name)
	}
	return nil
}

// dramBank is 16 bytes, so a whole DRAM's bank state is a few host lines.
type dramBank struct {
	nextFree event.Time
	openRow  uint64 // open row number plus one; 0 = no row open
}

// DRAM is a banked memory timing model with open-row tracking and per-bank
// queueing. Lines are interleaved across banks at cache-line granularity.
// Like Cache, it keeps plain counters only; Hierarchy.FlushMetrics feeds
// them to an attached registry at kernel end.
type DRAM struct {
	cfg   DRAMConfig
	banks []dramBank

	accesses, rowHits uint64

	// Registry handles (nil while unwired) and how much of the counters above
	// they already hold since the last Reset.
	mxAccesses, mxRowHits   *obs.Counter
	pubAccesses, pubRowHits uint64
	lat                     *obs.Histogram
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{cfg: cfg, banks: make([]dramBank, cfg.Banks)}
}

// Accesses returns the access count since the last Reset.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// RowHits returns the open-row hit count since the last Reset.
func (d *DRAM) RowHits() uint64 { return d.rowHits }

// setMetrics attaches the registry-backed stat set.
func (d *DRAM) setMetrics(reg *obs.Registry) {
	d.mxAccesses = reg.Counter("sim_dram_accesses_total")
	d.mxRowHits = reg.Counter("sim_dram_row_hits_total")
	d.lat = reg.Histogram("sim_dram_latency_cycles", obs.ExpBuckets(1, 2, 14))
}

// flushMetrics publishes what the counters gained since the last flush.
func (d *DRAM) flushMetrics() {
	d.mxAccesses.Add(d.accesses - d.pubAccesses)
	d.mxRowHits.Add(d.rowHits - d.pubRowHits)
	d.pubAccesses, d.pubRowHits = d.accesses, d.rowHits
}

// Reset clears bank state and statistics.
func (d *DRAM) Reset() {
	clear(d.banks)
	d.accesses, d.rowHits = 0, 0
	d.pubAccesses, d.pubRowHits = 0, 0
}

// Access implements Lower. It charges row-hit or row-miss latency plus any
// queueing delay behind earlier accesses to the same bank.
func (d *DRAM) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	d.accesses++
	b := &d.banks[(lineAddr/LineSize)&uint64(len(d.banks)-1)]
	row := lineAddr>>d.cfg.RowBits + 1

	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	lat := d.cfg.RowMissLatency
	if b.openRow == row {
		lat = d.cfg.RowHitLatency
		d.rowHits++
	}
	b.openRow = row
	b.nextFree = start + d.cfg.BurstCycles
	if d.lat != nil {
		d.lat.Observe(float64(start + lat - now))
	}
	return start + lat
}
