package mem

import (
	"fmt"
	"math/bits"

	"photon/internal/obs"
	"photon/internal/sim/event"
)

// HierarchyConfig wires the full GPU memory system: per-CU L1 vector caches,
// L1 instruction and scalar caches shared by groups of CUs, a banked L2, and
// DRAM. The two configurations in the paper's Table 1 are built in
// internal/sim/gpu.
type HierarchyConfig struct {
	NumCUs int
	// CUsPerScalarBlock is how many CUs share one L1I + one L1 scalar cache
	// (4 on both R9 Nano and MI100: 64 CUs/16 caches, 120 CUs/30 caches).
	CUsPerScalarBlock int
	L1V               CacheConfig
	L1I               CacheConfig
	L1K               CacheConfig // scalar (constant) cache
	L2                CacheConfig // per-bank configuration
	L2Banks           int
	DRAM              DRAMConfig
}

// Validate checks the wiring.
func (c HierarchyConfig) Validate() error {
	if c.NumCUs <= 0 {
		return fmt.Errorf("mem: hierarchy: NumCUs must be positive")
	}
	if c.CUsPerScalarBlock <= 0 || c.NumCUs%c.CUsPerScalarBlock != 0 {
		return fmt.Errorf("mem: hierarchy: %d CUs not divisible into scalar blocks of %d",
			c.NumCUs, c.CUsPerScalarBlock)
	}
	if c.L2Banks <= 0 || c.L2Banks&(c.L2Banks-1) != 0 {
		return fmt.Errorf("mem: hierarchy: L2 bank count %d must be a positive power of two", c.L2Banks)
	}
	for _, cc := range []CacheConfig{c.L1V, c.L1I, c.L1K, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return c.DRAM.Validate()
}

// Hierarchy is the timing model of the memory system. It is not safe for
// concurrent use; each simulated GPU owns one.
//
// Each level is one slab of Cache values over one slab of set store, so the
// hot scalars (port, counters) of all caches of a level sit together, and the
// wiring is concrete: an L1 holds the L2 bank slab, an L2 bank holds the DRAM,
// and no access crosses an interface.
type Hierarchy struct {
	cfg               HierarchyConfig
	l1v, l1i, l1k, l2 []Cache
	dram              *DRAM

	// The registry side of each cache level, indexed like levelNames: one
	// counter set per level (hits, misses, evictions, writebacks; nil while
	// unwired), so cardinality is independent of the CU count, and how much
	// of the level's plain counters it already holds since the last Reset.
	counters  [len(levelNames)][4]*obs.Counter
	published [len(levelNames)][4]uint64
	lat       [len(levelNames)]latTally

	// atomicAccesses counts per-lane atomic operations, which execute at the
	// L2 coherence point and so reach L2 without a corresponding L1 miss;
	// CheckConservation needs the count to balance the L2 traffic equation.
	atomicAccesses uint64
}

// levelNames are the cache levels in the fixed order they register with a
// registry, reset and publish; levels returns their caches in that order.
var levelNames = [...]string{"L1V", "L1I", "L1K", "L2"}

func (h *Hierarchy) levels() [len(levelNames)][]Cache {
	return [...][]Cache{h.l1v, h.l1i, h.l1k, h.l2}
}

// newLevel builds n caches of one level over shared slabs, named
// "<cfg.Name>[<tag><i>]", each wired to the given next level (L2 banks for an
// L1, the DRAM for an L2 bank).
func newLevel(cfg CacheConfig, n int, tag string, banks []Cache, dram *DRAM) []Cache {
	words := cfg.storeWords()
	store := make([]uint64, n*words)
	caches := make([]Cache, n)
	for i := range caches {
		caches[i] = Cache{banks: banks, dram: dram}
		c := cfg
		c.Name = fmt.Sprintf("%s[%s%d]", cfg.Name, tag, i)
		caches[i].init(c, store[i*words:(i+1)*words:(i+1)*words])
	}
	return caches
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, dram: NewDRAM(cfg.DRAM)}
	bankCfg := cfg.L2
	for 1<<bankCfg.IndexShift < cfg.L2Banks {
		bankCfg.IndexShift++
	}
	h.l2 = newLevel(bankCfg, cfg.L2Banks, "", nil, h.dram)
	h.l1v = newLevel(cfg.L1V, cfg.NumCUs, "cu", h.l2, nil)
	blocks := cfg.NumCUs / cfg.CUsPerScalarBlock
	h.l1i = newLevel(cfg.L1I, blocks, "blk", h.l2, nil)
	h.l1k = newLevel(cfg.L1K, blocks, "blk", h.l2, nil)
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// The access-latency histograms' upper bounds are powers of two (1 to 8192
// cycles), so latTally finds a latency's bucket with a bit scan.
const latBuckets = 14

var latBounds = obs.ExpBuckets(1, 2, latBuckets)

// latTally counts one level's access latencies per histogram bucket in plain
// words, so an access with a registry attached pays a bit scan and two adds
// where Histogram.Observe costs a bucket search and three atomics.
type latTally struct {
	hist   *obs.Histogram
	n, sum [latBuckets + 1]uint64 // per bucket, overflow last: accesses and their cycles
}

func (t *latTally) observe(lat event.Time) {
	b := 0
	if lat > 1 {
		b = min(bits.Len64(uint64(lat-1)), latBuckets)
	}
	t.n[b]++
	t.sum[b] += uint64(lat)
}

// flush publishes a bucket's n latencies, adding up to q*n + r, as r samples
// of q+1 cycles and n-r of q: both lie within the bucket's members' range, so
// bucket counts, count and sum equal observing every access on its own.
func (t *latTally) flush() {
	for b, n := range t.n {
		if n != 0 {
			q, r := t.sum[b]/n, t.sum[b]%n
			t.hist.ObserveN(float64(q), n-r)
			t.hist.ObserveN(float64(q+1), r)
			t.n[b], t.sum[b] = 0, 0
		}
	}
}

// SetMetrics attaches a telemetry registry: every cache level and the DRAM
// publish cumulative hit/miss/eviction/writeback counts and access-latency
// histograms into it, labeled by level. Both are fed from plain per-level
// tallies by FlushMetrics; latencies are tallied only while a registry is
// attached. Safe to call with a nil registry (detaches into no-ops).
func (h *Hierarchy) SetMetrics(reg *obs.Registry) {
	for i, caches := range h.levels() {
		l := obs.L("level", levelNames[i])
		h.counters[i] = [...]*obs.Counter{
			reg.Counter("sim_cache_hits_total", l),
			reg.Counter("sim_cache_misses_total", l),
			reg.Counter("sim_cache_evictions_total", l),
			reg.Counter("sim_cache_writebacks_total", l),
		}
		lat := &h.lat[i]
		lat.hist = reg.Histogram("sim_cache_latency_cycles", latBounds, l)
		if lat.hist == nil {
			lat = nil
		}
		for j := range caches {
			caches[j].lat = lat
		}
	}
	h.dram.setMetrics(reg)
}

// totals sums one level's plain counters: hits, misses, evictions, writebacks.
func totals(caches []Cache) (t [4]uint64) {
	for i := range caches {
		c := &caches[i]
		t[0] += c.hits
		t[1] += c.misses
		t[2] += c.evictions
		t[3] += c.writebacks
	}
	return t
}

// FlushMetrics publishes what the plain per-cache and DRAM counters gained
// since the last flush, and the latencies tallied since, into the attached
// registry. The timing machine calls it when a kernel drains and Reset calls
// it before clearing, so the registry's run-cumulative totals keep growing
// across per-kernel resets.
func (h *Hierarchy) FlushMetrics() {
	for i, caches := range h.levels() {
		sum := totals(caches)
		for k, ctr := range h.counters[i] {
			ctr.Add(sum[k] - h.published[i][k])
		}
		h.published[i] = sum
		h.lat[i].flush()
	}
	h.dram.flushMetrics()
}

// Reset invalidates every cache and clears DRAM state; the driver calls it
// between independent workloads.
func (h *Hierarchy) Reset() {
	h.FlushMetrics()
	for _, caches := range h.levels() {
		for j := range caches {
			caches[j].Reset()
		}
	}
	clear(h.published[:])
	h.dram.Reset()
	h.atomicAccesses = 0
}

// coalesce splits a warp's per-lane byte addresses (at most 64) into unique
// line addresses and returns how many it wrote to lines. Lines come out in
// first-occurrence order: that is the order they arbitrate for the L1 port
// and are touched in their sets' LRU order, so it is part of the simulated
// result. A lane on the same line as the lane before it — every lane but a
// few of a unit-stride or broadcast access — costs one compare; any other
// line goes through a 128-slot open-addressed table on the stack (line index
// plus one, 0 = empty), which keeps a full 64-line gather linear.
func coalesce(addrs []uint64, lines *[64]uint64) int {
	var slots [128]uint8
	n := 0
	prev := ^uint64(0) // not line-aligned, so no line equals it
	for _, a := range addrs {
		la := a &^ uint64(LineSize-1)
		if la == prev {
			continue
		}
		prev = la
		s := (la / LineSize) * 0x9E3779B97F4A7C15 >> 57
		for slots[s] != 0 && lines[slots[s]-1] != la {
			s = (s + 1) % uint64(len(slots))
		}
		if slots[s] == 0 {
			lines[n] = la
			n++
			slots[s] = uint8(n)
		}
	}
	return n
}

// VectorAccess performs a coalesced per-warp vector memory access from cuID.
// addrs holds the per-active-lane byte addresses. The access is split into
// unique cache lines; the returned time is when the slowest line completes.
func (h *Hierarchy) VectorAccess(now event.Time, cuID int, addrs []uint64, write bool) event.Time {
	if len(addrs) == 0 {
		return now + h.cfg.L1V.HitLatency
	}
	l1 := &h.l1v[cuID]
	done := now
	var lines [64]uint64
	for _, la := range lines[:coalesce(addrs, &lines)] {
		if t := l1.Access(now, la, write); t > done {
			done = t
		}
	}
	return done
}

// AtomicAccess performs a per-warp atomic read-modify-write. As on GCN
// hardware, global atomics execute at the L2 (the coherence point), not in
// the per-CU L1: every active lane performs its own access against the
// owning L2 bank, so atomics to one hot line serialize on one bank while
// spread atomics parallelize across banks.
func (h *Hierarchy) AtomicAccess(now event.Time, cuID int, addrs []uint64) event.Time {
	if len(addrs) == 0 {
		return now + h.cfg.L2.HitLatency
	}
	done := now
	for _, a := range addrs {
		h.atomicAccesses++
		la := a &^ uint64(LineSize-1)
		if t := bankFor(h.l2, la).Access(now, la, true); t > done {
			done = t
		}
	}
	return done
}

// ScalarAccess performs a scalar (constant) load through the scalar cache
// shared by cuID's block.
func (h *Hierarchy) ScalarAccess(now event.Time, cuID int, addr uint64) event.Time {
	blk := cuID / h.cfg.CUsPerScalarBlock
	return h.l1k[blk].Access(now, addr&^uint64(LineSize-1), false)
}

// InstFetch charges an instruction-cache access for the fetch group
// containing instAddr (the timing model fetches once per basic-block entry).
func (h *Hierarchy) InstFetch(now event.Time, cuID int, instAddr uint64) event.Time {
	blk := cuID / h.cfg.CUsPerScalarBlock
	return h.l1i[blk].Access(now, instAddr&^uint64(LineSize-1), false)
}

// CheckConservation verifies the flow-conservation invariants every
// well-formed run must satisfy, using counters that are incremented
// independently of each other (Cache.accesses is counted at entry, hits and
// misses on their branches, so accesses == hits+misses is a real check on
// control flow, not arithmetic). The traffic equations follow from the
// write-back write-allocate design: each L1 miss fills from L2 and each dirty
// L1 eviction writes back through L2, and atomics execute directly at the L2
// coherence point, so L2 access traffic is exactly the sum of L1 misses, L1
// writebacks and per-lane atomic operations; likewise DRAM sees exactly L2
// misses plus L2 writebacks.
func (h *Hierarchy) CheckConservation() error {
	var l1Demand, l2Acc, l2Demand uint64
	for i, caches := range h.levels() {
		for j := range caches {
			c := &caches[j]
			if c.accesses != c.hits+c.misses {
				return fmt.Errorf("mem: %s: accesses %d != hits %d + misses %d",
					c.cfg.Name, c.accesses, c.hits, c.misses)
			}
			if levelNames[i] == "L2" {
				l2Acc += c.accesses
				l2Demand += c.misses + c.writebacks
			} else {
				l1Demand += c.misses + c.writebacks
			}
		}
	}
	if l2Acc != l1Demand+h.atomicAccesses {
		return fmt.Errorf("mem: L2 accesses %d != L1 misses+writebacks %d + atomics %d",
			l2Acc, l1Demand, h.atomicAccesses)
	}
	if h.dram.Accesses() != l2Demand {
		return fmt.Errorf("mem: DRAM accesses %d != L2 misses+writebacks %d",
			h.dram.Accesses(), l2Demand)
	}
	return nil
}

// Stats aggregates hit/miss counters across the hierarchy.
type Stats struct {
	L1VHits, L1VMisses uint64
	L1IHits, L1IMisses uint64
	L1KHits, L1KMisses uint64
	L2Hits, L2Misses   uint64
	DRAMAccesses       uint64
}

// CollectStats sums the per-cache counters.
func (h *Hierarchy) CollectStats() Stats {
	v, i, k, l2 := totals(h.l1v), totals(h.l1i), totals(h.l1k), totals(h.l2)
	return Stats{
		L1VHits: v[0], L1VMisses: v[1], L1IHits: i[0], L1IMisses: i[1],
		L1KHits: k[0], L1KMisses: k[1], L2Hits: l2[0], L2Misses: l2[1],
		DRAMAccesses: h.dram.Accesses(),
	}
}
