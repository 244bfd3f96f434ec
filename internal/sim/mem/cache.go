package mem

import (
	"fmt"
	"slices"

	"photon/internal/obs"
	"photon/internal/sim/event"
)

// LineSize is the cache-line size in bytes for every cache level, matching
// the 64-byte lines of GCN/CDNA GPUs.
const LineSize = 64

// CacheConfig describes one cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency event.Time
	// ThroughputCycles is the minimum spacing between two accesses through
	// the cache's port; it produces bandwidth contention when many warps
	// hammer the same cache.
	ThroughputCycles event.Time
	// IndexShift drops low line-number bits before set indexing. Banked
	// caches that are line-interleaved across banks set it to log2(banks)
	// so a bank still uses all of its sets.
	IndexShift uint
}

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: cache %q: non-positive size or ways", c.Name)
	}
	if c.SizeBytes%(c.Ways*LineSize) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible into %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, LineSize)
	}
	return nil
}

// storeWords returns how many words of set store the configuration needs,
// panicking on a configuration NewCache would reject.
func (c CacheConfig) storeWords() int {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	numSets := c.SizeBytes / (c.Ways * LineSize)
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q: set count %d not a power of two", c.Name, numSets))
	}
	return numSets * c.Ways * 2
}

// Lower is the seam a standalone cache (NewCache) fetches lines through, so
// tests can put a fake next level under it. Access takes the time the
// request leaves this level and returns the time the line is available.
// Nothing NewHierarchy wires goes through it: an L1 calls its L2 banks and an
// L2 bank calls the DRAM directly.
type Lower interface {
	Access(now event.Time, lineAddr uint64, write bool) event.Time
}

// Cache is a set-associative, write-back, write-allocate cache with an LRU
// replacement policy and a single port whose throughput limit models
// bandwidth contention. It is a timing model only: data lives in the
// functional Flat memory.
//
// The sets live in one flat word array, set-major: set s occupies
// store[s*2*ways:][:2*ways], its tag words followed by its stamp words, so a
// 4-way set is one host cache line and a lookup touches nothing else. A tag
// word is the line number plus one (0 = invalid way); a stamp word is the
// LRU clock of the last touch shifted left once, with the dirty flag in the
// low bit (clock values are unique per cache, so stamp order is LRU order).
//
// The plain counters are the only statistics a cache keeps; the hierarchy
// feeds them to a registry at kernel end (Hierarchy.FlushMetrics).
type Cache struct {
	cfg      CacheConfig
	store    []uint64
	setMask  uint64
	portFree event.Time
	lruClock uint64

	// accesses is counted independently at the top of probe rather than
	// derived from hits+misses, so the conservation check
	// accesses == hits + misses is a real invariant and not a tautology.
	accesses                            uint64
	hits, misses, evictions, writebacks uint64

	// The next level; exactly one is set. banks are the line-interleaved L2
	// banks under an L1, dram sits under an L2 bank, lower under a
	// standalone cache.
	banks []Cache
	dram  *DRAM
	lower Lower

	lat *obs.Histogram // access-latency histogram; nil unless a registry is attached
}

// NewCache builds a standalone cache over the given lower level.
func NewCache(cfg CacheConfig, lower Lower) *Cache {
	c := &Cache{lower: lower}
	c.init(cfg, make([]uint64, cfg.storeWords()))
	return c
}

// init configures the cache over its set store (cfg.storeWords() zeroed words).
func (c *Cache) init(cfg CacheConfig, store []uint64) {
	c.cfg = cfg
	c.store = store
	c.setMask = uint64(len(store)/(2*cfg.Ways) - 1)
}

// Accesses returns the access count since the last Reset.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Hits returns the hit count since the last Reset.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count since the last Reset.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the eviction count since the last Reset.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Writebacks returns the writeback count since the last Reset.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// Reset invalidates all lines and clears statistics (used between kernels
// when a cold-cache policy is wanted, and by tests).
func (c *Cache) Reset() {
	clear(c.store)
	c.portFree = 0
	c.accesses = 0
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
}

// set returns the tag and stamp words of the set lineAddr maps to.
func (c *Cache) set(lineAddr uint64) (tags, stamps []uint64) {
	ways := c.cfg.Ways
	base := int((lineAddr/LineSize)>>c.cfg.IndexShift&c.setMask) * 2 * ways
	s := c.store[base : base+2*ways : base+2*ways]
	return s[:ways], s[ways:]
}

// probe is everything one access does inside this level: port arbitration,
// lookup, LRU update and — on a miss — victim choice, eviction accounting
// and installing the line. It returns when the access started, whether it
// hit, and the tag word of a dirty victim that must be written back
// (0 = none); Access sends a miss on to the level below.
//
// The replacement rule, quirk included: the candidate starts at way 0 and
// the scan runs from way 1; the first invalid way there wins immediately,
// otherwise the oldest stamp does. An invalid way 0 competes only through
// its zero stamp, so a fresh set fills ways 1…n-1 and then 0. Lookup and
// victim scan stay two loops over the one set block: folding the victim
// bookkeeping into the lookup measured slower, because hits pay for it.
func (c *Cache) probe(now event.Time, lineAddr uint64, write bool) (start event.Time, hit bool, wb uint64) {
	c.accesses++

	// Port arbitration: the access cannot start before the port frees up.
	start = now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + c.cfg.ThroughputCycles

	tag := lineAddr/LineSize + 1
	tags, stamps := c.set(lineAddr)
	stamps = stamps[:len(tags)]
	c.lruClock++
	stamp := c.lruClock << 1
	if write {
		stamp |= 1
	}

	for i, t := range tags {
		if t == tag {
			c.hits++
			stamps[i] = stamp | stamps[i]&1
			return start, true, 0
		}
	}

	c.misses++
	victim := 0
	for i := 1; i < len(stamps); i++ {
		if tags[i] == 0 {
			victim = i
			break
		}
		if stamps[i] < stamps[victim] {
			victim = i
		}
	}
	if old := tags[victim]; old != 0 {
		c.evictions++
		if stamps[victim]&1 != 0 {
			c.writebacks++
			wb = old
		}
	}
	tags[victim], stamps[victim] = tag, stamp
	return start, false, wb
}

// Access performs a timing access for the line containing lineAddr and
// returns the completion time. lineAddr must be line-aligned. A miss writes
// a dirty victim back — consuming lower-level bandwidth, but off the critical
// path of this access — and then fills from the lower level.
func (c *Cache) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	start, hit, wb := c.probe(now, lineAddr, write)
	done := start + c.cfg.HitLatency
	if !hit {
		if wb != 0 {
			c.below(done, (wb-1)*LineSize, true)
		}
		done = c.below(done, lineAddr, false)
	}
	if c.lat != nil {
		c.lat.Observe(float64(done - now))
	}
	return done
}

// below sends one access to the next level.
func (c *Cache) below(now event.Time, lineAddr uint64, write bool) event.Time {
	switch {
	case c.banks != nil:
		return bankFor(c.banks, lineAddr).Access(now, lineAddr, write)
	case c.dram != nil:
		return c.dram.Access(now, lineAddr, write)
	}
	return c.lower.Access(now, lineAddr, write)
}

// bankFor steers a line to its L2 bank by line interleaving.
func bankFor(banks []Cache, lineAddr uint64) *Cache {
	return &banks[(lineAddr/LineSize)&uint64(len(banks)-1)]
}

// Contains reports whether the line holding lineAddr is currently resident
// (no LRU update, no timing side effects). Tests use it to verify fills.
func (c *Cache) Contains(lineAddr uint64) bool {
	tags, _ := c.set(lineAddr)
	return slices.Contains(tags, lineAddr/LineSize+1)
}
