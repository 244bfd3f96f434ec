package mem

import (
	"fmt"
	"slices"

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

// maxWays is how many 4-bit way ids fit a set's one recency word.
const maxWays = 16

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.Ways > maxWays {
		return fmt.Errorf("mem: cache %q: non-positive size, or ways outside 1..%d", c.Name, maxWays)
	}
	if c.SizeBytes%(c.Ways*LineSize) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible into %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, LineSize)
	}
	if numSets := c.SizeBytes / (c.Ways * LineSize); numSets&(numSets-1) != 0 {
		return fmt.Errorf("mem: cache %q: set count %d not a power of two", c.Name, numSets)
	}
	return nil
}

// storeWords returns how many words of set store a valid configuration needs.
func (c CacheConfig) storeWords() int {
	return c.SizeBytes / (c.Ways * LineSize) * (c.Ways + 2)
}

// Lower is the seam a standalone cache (NewCache) fetches lines through, so
// tests can put a fake next level under it. Access takes the time the
// request leaves this level and returns the time the line is available.
// Nothing NewHierarchy wires goes through it: an L1 calls its L2 banks and an
// L2 bank calls the DRAM directly.
type Lower interface {
	Access(now event.Time, lineAddr uint64, write bool) event.Time
}

// Cache is a set-associative, write-back, write-allocate cache with a true
// LRU replacement policy and a single port whose throughput limit models
// bandwidth contention. It is a timing model only: data lives in the
// functional Flat memory.
//
// The sets live in one flat word array, set-major: set s occupies
// store[s*(ways+2):][:ways+2] — tag words, recency word, dirty mask — so a
// lookup touches nothing else. A tag word is the line number plus one (0 =
// invalid way). The recency word is the set's LRU order as 4-bit way ids,
// nibble 0 the most recently used: always a permutation of 0…ways-1, zero
// above it. Bit w of the dirty mask is way w's; invalid ways are never dirty.
//
// The plain counters are the only statistics a cache keeps; the hierarchy
// feeds them to a registry at kernel end (Hierarchy.FlushMetrics).
type Cache struct {
	cfg      CacheConfig
	store    []uint64
	setMask  uint64
	portFree event.Time

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

	lat *latTally // the level's access-latency tally; nil unless a registry is attached
}

// NewCache builds a standalone cache over the given lower level.
func NewCache(cfg CacheConfig, lower Lower) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{lower: lower}
	c.init(cfg, make([]uint64, cfg.storeWords()))
	return c
}

// init configures the cache over its set store (cfg.storeWords() words).
func (c *Cache) init(cfg CacheConfig, store []uint64) {
	c.cfg = cfg
	c.store = store
	c.setMask = uint64(len(store)/(cfg.Ways+2) - 1)
	c.Reset()
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
// when a cold-cache policy is wanted, and by tests). An empty set's order is,
// most recent first, ways 0, n-1, …, 2, 1 (the top n-1 nibbles of 0x123…F
// over a zero): installs touch, so the set fills ways 1…n-1 and then 0.
func (c *Cache) Reset() {
	clear(c.store)
	ways := c.cfg.Ways
	for i := ways; i < len(c.store); i += ways + 2 {
		c.store[i] = 0x123456789ABCDEF0 >> (4 * uint(maxWays+1-ways)) << 4
	}
	c.portFree = 0
	c.accesses = 0
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
}

// set returns the block of the set lineAddr maps to: its ways tag words,
// then the recency word, then the dirty mask.
func (c *Cache) set(lineAddr uint64) []uint64 {
	n := c.cfg.Ways + 2
	base := int((lineAddr/LineSize)>>c.cfg.IndexShift&c.setMask) * n
	return c.store[base : base+n : base+n]
}

// probe is everything one access does inside this level: port arbitration,
// lookup, LRU update and — on a miss — victim choice, eviction accounting
// and installing the line. It returns when the access started, whether it
// hit, and the tag word of a dirty victim that must be written back
// (0 = none); Access sends a miss on to the level below.
//
// LRU needs only the order of the ways, so replacement is O(1) in the way
// count: a hit moves its way to the front of the recency word; a miss first
// takes the last nibble's way (an invalid one while any is left, see Reset).
func (c *Cache) probe(now event.Time, lineAddr uint64, write bool) (start event.Time, hit bool, wb uint64) {
	c.accesses++

	// Port arbitration: the access cannot start before the port frees up.
	start = now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + c.cfg.ThroughputCycles

	tag := lineAddr/LineSize + 1
	s := c.set(lineAddr)
	tags := s[:len(s)-2]
	order, dirty := &s[len(s)-2], &s[len(s)-1]
	rec := *order

	for i, t := range tags {
		if t == tag {
			c.hits++
			w := uint64(i)
			if write {
				*dirty |= 1 << w
			}
			if rec&0xF != w {
				// Zero w's nibble and find it (the lowest nibble the
				// zero-nibble test flags is exact); top is its high bit. The
				// nibbles below it move up one place and w goes in front.
				const ones, tops = 0x1111111111111111, 0x8888888888888888
				x := rec ^ w*ones
				top := (x - ones) &^ x & tops
				top &= -top
				*order = rec&^(top<<1-1) | rec&(top>>3-1)<<4 | w
			}
			return start, true, 0
		}
	}

	c.misses++
	last := 4 * uint(len(tags)-1)
	victim := rec >> last & 0xF
	*order = rec&^(0xF<<last)<<4 | victim
	bit := uint64(1) << victim
	if old := tags[victim]; old != 0 {
		c.evictions++
		if *dirty&bit != 0 {
			c.writebacks++
			wb = old
		}
	}
	*dirty &^= bit
	if write {
		*dirty |= bit
	}
	tags[victim] = tag
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
		c.lat.observe(done - now)
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
	return slices.Contains(c.set(lineAddr)[:c.cfg.Ways], lineAddr/LineSize+1)
}
