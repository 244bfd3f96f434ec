package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"photon/internal/sim/event"
)

// refCache is the cache model as it stood before the flat set store: an
// array-of-structs line per way behind a per-set slice, a hit loop and a
// separate victim loop, and the Lower interface underneath. It is kept
// verbatim (minus registry publishing) as the reference Cache is
// differentially tested against; do not "improve" it.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type refCache struct {
	cfg      CacheConfig
	sets     [][]refLine
	setMask  uint64
	lower    Lower
	portFree event.Time
	lruClock uint64

	accesses                            uint64
	hits, misses, evictions, writebacks uint64
}

func newRefCache(cfg CacheConfig, lower Lower) *refCache {
	numSets := cfg.SizeBytes / (cfg.Ways * LineSize)
	sets := make([][]refLine, numSets)
	backing := make([]refLine, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{cfg: cfg, sets: sets, setMask: uint64(numSets - 1), lower: lower}
}

func (c *refCache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
	c.portFree = 0
	c.accesses = 0
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
}

func (c *refCache) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	c.accesses++

	start := now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + c.cfg.ThroughputCycles

	setIdx := ((lineAddr / LineSize) >> c.cfg.IndexShift) & c.setMask
	tag := lineAddr / LineSize
	set := c.sets[setIdx]
	c.lruClock++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.hits++
			set[i].lru = c.lruClock
			if write {
				set[i].dirty = true
			}
			return start + c.cfg.HitLatency
		}
	}

	c.misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.evictions++
		if set[victim].dirty {
			c.writebacks++
			c.lower.Access(start+c.cfg.HitLatency, set[victim].tag*LineSize, true)
		}
	}
	fillDone := c.lower.Access(start+c.cfg.HitLatency, lineAddr, false)
	set[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	return fillDone
}

func (c *refCache) Contains(lineAddr uint64) bool {
	setIdx := ((lineAddr / LineSize) >> c.cfg.IndexShift) & c.setMask
	tag := lineAddr / LineSize
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// lowerCall is one access a cache made to its lower level.
type lowerCall struct {
	at    event.Time
	line  uint64
	write bool
}

// recLower records every call and answers with a latency that depends on the
// call, so a wrong time, line or order shows up in later completion times.
type recLower struct{ calls []lowerCall }

func (r *recLower) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	r.calls = append(r.calls, lowerCall{now, lineAddr, write})
	return now + 100 + event.Time(lineAddr/LineSize%7)
}

// checkSet fails unless a set block is well formed: its recency word is a
// permutation of 0…ways-1 with nothing above it, and its dirty mask has no bit
// on an invalid way or beyond the ways.
func checkSet(t testing.TB, s []uint64) {
	t.Helper()
	ways := len(s) - 2
	order, dirty := s[ways], s[ways+1]
	seen := 0
	for k := 0; k < ways; k++ {
		seen |= 1 << (order >> (4 * k) & 0xF)
	}
	if seen != 1<<ways-1 || ways < maxWays && order>>(4*ways) != 0 {
		t.Fatalf("recency word %#x is not a permutation of 0..%d", order, ways-1)
	}
	if dirty>>ways != 0 {
		t.Fatalf("dirty mask %#b has a bit beyond way %d", dirty, ways-1)
	}
	for w, tg := range s[:ways] {
		if tg == 0 && dirty>>w&1 != 0 {
			t.Fatalf("invalid way %d is dirty (mask %#b)", w, dirty)
		}
	}
}

// cachePair is Cache and refCache side by side over recording lowers. Every
// access must complete at the same time on both and leave the touched set
// well formed; finish demands the same machine overall: all five counters,
// residency of every line touched, the exact sequence of lower-level calls,
// and every set well formed.
type cachePair struct {
	t              testing.TB
	c              *Cache
	ref            *refCache
	lowNew, lowRef *recLower
	touched        map[uint64]bool
	n              int
}

func newCachePair(t testing.TB, cfg CacheConfig) *cachePair {
	p := &cachePair{t: t, lowNew: &recLower{}, lowRef: &recLower{}, touched: map[uint64]bool{}}
	p.c, p.ref = NewCache(cfg, p.lowNew), newRefCache(cfg, p.lowRef)
	p.checkAllSets()
	return p
}

func (p *cachePair) checkAllSets() {
	p.t.Helper()
	n := p.c.cfg.Ways + 2
	for i := 0; i < len(p.c.store); i += n {
		checkSet(p.t, p.c.store[i:i+n])
	}
}

func (p *cachePair) access(now event.Time, addr uint64, write bool) {
	p.t.Helper()
	p.touched[addr] = true
	got, want := p.c.Access(now, addr, write), p.ref.Access(now, addr, write)
	if got != want {
		p.t.Fatalf("access %d (line %#x write=%v @%d): done %d, reference %d", p.n, addr/LineSize, write, now, got, want)
	}
	checkSet(p.t, p.c.set(addr))
	p.n++
}

func (p *cachePair) reset() {
	p.t.Helper()
	p.c.Reset()
	p.ref.Reset()
	p.checkAllSets()
}

func (p *cachePair) finish() {
	t, c, ref := p.t, p.c, p.ref
	t.Helper()
	if c.accesses != ref.accesses || c.hits != ref.hits || c.misses != ref.misses ||
		c.evictions != ref.evictions || c.writebacks != ref.writebacks {
		t.Errorf("counters: got %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
			c.accesses, c.hits, c.misses, c.evictions, c.writebacks,
			ref.accesses, ref.hits, ref.misses, ref.evictions, ref.writebacks)
	}
	for addr := range p.touched {
		if c.Contains(addr) != ref.Contains(addr) {
			t.Errorf("line %#x: resident %v, reference %v", addr, c.Contains(addr), ref.Contains(addr))
		}
	}
	if len(p.lowNew.calls) != len(p.lowRef.calls) {
		t.Fatalf("lower saw %d calls, reference %d", len(p.lowNew.calls), len(p.lowRef.calls))
	}
	for i := range p.lowRef.calls {
		if p.lowNew.calls[i] != p.lowRef.calls[i] {
			t.Fatalf("lower call %d: %+v, reference %+v", i, p.lowNew.calls[i], p.lowRef.calls[i])
		}
	}
	p.checkAllSets()
}

// pairWays are the associativities the differential tests cover: the tree's
// 2, 4 and 16, the degenerate 1, a non-power-of-two and one in between.
var pairWays = []int{1, 2, 3, 4, 8, 16}

// TestCacheMatchesReference drives Cache and refCache with the same seeded
// streams, with a Reset mid-stream, through a cachePair.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range pairWays {
		for _, shift := range []uint{0, 3} {
			for _, hot := range []bool{false, true} {
				name := fmt.Sprintf("ways%d/shift%d/hot=%v", ways, shift, hot)
				t.Run(name, func(t *testing.T) {
					p := newCachePair(t, CacheConfig{Name: name, SizeBytes: 64 * ways * LineSize, Ways: ways,
						HitLatency: 10, ThroughputCycles: 2, IndexShift: shift})
					rng := rand.New(rand.NewSource(int64(ways)<<8 | int64(shift)<<1))
					// Uniform: ~3x the capacity, so sets fill, evict and re-hit.
					// Hot: four sets' worth of lines over 2x their ways.
					span := uint64(3 * 64 * ways)
					now := event.Time(0)
					for i := 0; i < 20000; i++ {
						line := rng.Uint64() % span
						if hot {
							line = (line%uint64(2*ways))<<(6+shift) | (line/uint64(2*ways)%4)<<shift
						}
						write := rng.Intn(3) == 0
						now += event.Time(rng.Intn(4))
						p.access(now, line*LineSize, write)
						if i == 6000 || i == 13000 {
							p.reset()
						}
					}
					p.finish()
					if c := p.c; c.evictions == 0 || c.writebacks == 0 || c.hits == 0 {
						t.Errorf("stream too tame: %d evictions, %d writebacks, %d hits", c.evictions, c.writebacks, c.hits)
					}
				})
			}
		}
	}
}

// FuzzCacheVsReference lets the fuzzer write the stream. Byte 0 picks the
// associativity and index shift of a four-set cache; each following pair of
// bytes is one access — set and one of 64 tags from the first, write flag and
// time delta from the second — or, for 0xFF 0xFF, a Reset. The seed corpus
// (testdata/fuzz) holds one fill/hit/evict/Reset stream per associativity.
func FuzzCacheVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := pairWays[int(data[0])%len(pairWays)]
		shift := uint(data[0]) / uint(len(pairWays)) % 2 * 3
		p := newCachePair(t, CacheConfig{Name: "fuzz", SizeBytes: 4 * ways * LineSize, Ways: ways,
			HitLatency: 10, ThroughputCycles: 2, IndexShift: shift})
		now := event.Time(0)
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			if ops[0] == 0xFF && ops[1] == 0xFF {
				p.reset()
				continue
			}
			line := uint64(ops[0]>>2)<<(2+shift) | uint64(ops[0]&3)<<shift
			now += event.Time(ops[1] >> 1 & 7)
			p.access(now, line*LineSize, ops[1]&1 != 0)
		}
		p.finish()
	})
}

// TestCacheFillOrderAndDirtyVictim pins two things a counter comparison
// cannot see. Way placement: a fresh set fills ways 1…n-1 and then 0, and a
// full set replaces its least recently used way. Dirty-victim timing: the
// writeback leaves at start+HitLatency, before the fill, and the refilled way
// comes back clean.
func TestCacheFillOrderAndDirtyVictim(t *testing.T) {
	low := &recLower{}
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 4 * 1024, Ways: 4, HitLatency: 10, ThroughputCycles: 1}, low)
	stride := uint64(16 * LineSize) // 16 sets: same set every 16 lines
	wayOf := func(addr uint64) int {
		s := c.set(addr)
		checkSet(t, s)
		return slices.Index(s[:c.cfg.Ways], addr/LineSize+1)
	}
	steps := []struct {
		line    uint64
		write   bool
		wantWay int
	}{
		{1, true, 1}, {2, false, 2}, {3, false, 3}, {4, false, 0}, // fresh set: ways 1, 2, 3, then 0
		{1, false, 1}, // hit: way 1 becomes most recent (and stays dirty)
		{5, false, 2}, // full set: line 2 in way 2 is now the oldest
		{6, false, 3},
		{7, false, 0},
		{8, false, 1}, // evicts dirty line 1
	}
	for i, s := range steps {
		c.Access(event.Time(1000*i), s.line*stride, s.write)
		if got := wayOf(s.line * stride); got != s.wantWay {
			t.Fatalf("step %d: line %d sits in way %d, want %d", i, s.line, got, s.wantWay)
		}
	}
	n := len(low.calls)
	wb, fill := low.calls[n-2], low.calls[n-1]
	at := event.Time(1000*(len(steps)-1)) + 10
	if wb != (lowerCall{at, 1 * stride, true}) || fill != (lowerCall{at, 8 * stride, false}) {
		t.Fatalf("dirty eviction: lower saw %+v then %+v, want writeback of line 1 then fill of line 8, both at %d", wb, fill, at)
	}
	if c.writebacks != 1 || c.evictions != 4 {
		t.Fatalf("evictions=%d writebacks=%d, want 4 and 1", c.evictions, c.writebacks)
	}
	// Way 1 was refilled by a read: evicting it again must not write back.
	for l := uint64(9); l < 13; l++ {
		c.Access(event.Time(1000*l), l*stride, false)
	}
	if c.writebacks != 1 {
		t.Fatalf("refilled way kept its dirty bit: writebacks=%d", c.writebacks)
	}
}

// coalesceRef is the quadratic coalescer the linear one replaced.
func coalesceRef(addrs []uint64) []uint64 {
	var lines []uint64
outer:
	for _, a := range addrs {
		la := a &^ uint64(LineSize-1)
		for _, l := range lines {
			if l == la {
				continue outer
			}
		}
		lines = append(lines, la)
	}
	return lines
}

// TestCoalesceMatchesReference checks same lines, same (first-occurrence)
// order — the order is L1 port arbitration and LRU touch order, so it is
// part of the simulated result.
func TestCoalesceMatchesReference(t *testing.T) {
	lanes := func(f func(i int) uint64) []uint64 {
		a := make([]uint64, 64)
		for i := range a {
			a[i] = f(i)
		}
		return a
	}
	rng := rand.New(rand.NewSource(13))
	shapes := map[string][]uint64{
		"empty":          nil,
		"one-lane":       {0x1234},
		"unit-stride":    lanes(func(i int) uint64 { return 0x10000 + uint64(i)*4 }),
		"unaligned-unit": lanes(func(i int) uint64 { return 0x1003c + uint64(i)*4 }),
		"stride-2-lines": lanes(func(i int) uint64 { return 0x20000 + uint64(i)*2*LineSize }),
		"broadcast":      lanes(func(i int) uint64 { return 0x30008 }),
		"full-gather":    lanes(func(i int) uint64 { return rng.Uint64() &^ 3 }),
		"dup-at-distance": lanes(func(i int) uint64 {
			return 0x40000 + uint64(i%16)*LineSize + uint64(i/16)*4
		}),
		"descending":  lanes(func(i int) uint64 { return 0x50000 - uint64(i)*LineSize }),
		"few-hot":     lanes(func(i int) uint64 { return 0x60000 + uint64(rng.Intn(5))*LineSize }),
		"hash-clash":  lanes(func(i int) uint64 { return uint64(i) << 40 }),
		"partial-map": lanes(func(i int) uint64 { return 0x70000 + uint64(i*i)*8 })[:37],
	}
	for name, addrs := range shapes {
		var lines [64]uint64
		got := lines[:coalesce(addrs, &lines)]
		want := coalesceRef(addrs)
		if len(got) != len(want) {
			t.Errorf("%s: %d lines, reference %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: line %d is %#x, reference %#x (order or content differs)", name, i, got[i], want[i])
				break
			}
		}
	}
}

// BenchmarkCacheHit times hits alone on a 16 KB 4-way L1: four resident
// lines in round-robin, either in four sets (each hit finds its way already
// most recent) or in one set (each hit is on the least recent way, the full
// move-to-front).
func BenchmarkCacheHit(b *testing.B) {
	for _, tc := range []struct {
		name   string
		stride uint64
	}{{"four-sets", LineSize}, {"one-set", 64 * LineSize}} {
		b.Run(tc.name, func(b *testing.B) {
			stride := tc.stride
			c := NewCache(CacheConfig{Name: "l1", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 28, ThroughputCycles: 1}, &fixedLower{latency: 100})
			for i := uint64(0); i < 4; i++ {
				c.Access(0, i*stride, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(event.Time(i), uint64(i&3)*stride, i&4 != 0)
			}
			if c.Misses() != 4 {
				b.Fatalf("%d misses, want the 4 fills only", c.Misses())
			}
		})
	}
}
