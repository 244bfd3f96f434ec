package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"photon/internal/obs"
	"photon/internal/sim/event"
	"photon/internal/testutil"
)

func TestFlatReadWriteRoundTrip(t *testing.T) {
	m := NewFlat()
	base := m.Alloc(1024)
	m.Write32(base, 0xdeadbeef)
	if got := m.Read32(base); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x", got)
	}
	m.WriteF32(base+4, 3.5)
	if got := m.ReadF32(base + 4); got != 3.5 {
		t.Fatalf("ReadF32 = %v", got)
	}
}

func TestFlatUnwrittenReadsZero(t *testing.T) {
	m := NewFlat()
	base := m.Alloc(64)
	if got := m.Read32(base + 60); got != 0 {
		t.Fatalf("unwritten read = %#x, want 0", got)
	}
}

func TestFlatCrossPageAccess(t *testing.T) {
	m := NewFlat()
	addr := uint64(2*pageSize - 2) // straddles a page boundary
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Fatalf("cross-page read = %#x", got)
	}
}

func TestFlatAllocAlignmentAndDisjointness(t *testing.T) {
	m := NewFlat()
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a%256 != 0 || b%256 != 0 {
		t.Fatalf("allocations not 256-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Fatalf("allocations overlap: %#x %#x", a, b)
	}
}

func TestFlatBulkHelpers(t *testing.T) {
	m := NewFlat()
	base := m.Alloc(64)
	m.WriteFloats(base, []float32{1, 2, 3})
	got := m.ReadFloats(base, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ReadFloats = %v", got)
	}
	m.WriteWords(base, []uint32{7, 8})
	w := m.ReadWords(base, 2)
	if w[0] != 7 || w[1] != 8 {
		t.Fatalf("ReadWords = %v", w)
	}
}

// The bulk helpers work a page run at a time; a buffer that starts inside one
// page and ends two pages later must read back word for word through Read32.
func TestFlatBulkHelpersCrossPages(t *testing.T) {
	m := NewFlat()
	m.Alloc(pageSize - 256) // so the buffer starts 256 bytes before a page boundary
	const n = 2*pageSize/4 + 100
	base := m.Alloc(4 * n)
	words, floats := make([]uint32, n), make([]float32, n)
	for i := range words {
		words[i], floats[i] = uint32(i)*2654435761, float32(i)+0.5
	}
	m.WriteWords(base, words)
	for i, w := range words {
		if got := m.Read32(base + 4*uint64(i)); got != w {
			t.Fatalf("WriteWords: word %d reads %#x, want %#x", i, got, w)
		}
	}
	if got := m.ReadWords(base, n); !slices.Equal(got, words) {
		t.Fatal("ReadWords differs from what WriteWords stored")
	}
	m.WriteFloats(base, floats)
	for i, f := range floats {
		if got := m.ReadF32(base + 4*uint64(i)); got != f {
			t.Fatalf("WriteFloats: float %d reads %v, want %v", i, got, f)
		}
	}
	if got := m.ReadFloats(base, n); !slices.Equal(got, floats) {
		t.Fatal("ReadFloats differs from what WriteFloats stored")
	}
	if len(m.ReadWords(base, 0)) != 0 {
		t.Fatal("empty read not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned bulk access did not panic")
		}
	}()
	m.WriteWords(base+2, words[:1])
}

// Property: Flat behaves like a map from address to word for aligned,
// non-overlapping writes.
func TestPropertyFlatMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewFlat()
		model := map[uint64]uint32{}
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1<<20) * 4)
			v := rng.Uint32()
			m.Write32(addr, v)
			model[addr] = v
		}
		for addr, v := range model {
			if m.Read32(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fixedLower is a Lower with constant latency, counting accesses.
type fixedLower struct {
	latency  event.Time
	accesses int
}

func (f *fixedLower) Access(now event.Time, lineAddr uint64, write bool) event.Time {
	f.accesses++
	return now + f.latency
}

func testCache(lower Lower) *Cache {
	return NewCache(CacheConfig{
		Name: "t", SizeBytes: 4 * 1024, Ways: 4,
		HitLatency: 10, ThroughputCycles: 1,
	}, lower)
}

func TestCacheHitAfterMiss(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower)
	t1 := c.Access(0, 0x1000, false)
	if t1 != 110 { // 10 hit-check + 100 fill
		t.Fatalf("miss done at %d, want 110", t1)
	}
	t2 := c.Access(200, 0x1000, false)
	if t2 != 210 {
		t.Fatalf("hit done at %d, want 210", t2)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCachePortContention(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower)
	c.Access(0, 0x0, false)
	// Ten simultaneous accesses to resident line: each occupies the port
	// for 1 cycle, so completion times fan out.
	c.Access(50, 0x0, false)
	last := c.Access(50, 0x0, false)
	if last != 50+1+10 { // second access starts 1 cycle later
		t.Fatalf("contended access done at %d, want 61", last)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower) // 4KB, 4-way, 64B lines -> 16 sets; same set every 16 lines
	setStride := uint64(16 * LineSize)
	// Fill all 4 ways of set 0, then touch a 5th line in set 0.
	for i := uint64(0); i < 5; i++ {
		c.Access(event.Time(i*1000), i*setStride, false)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Contains(0) {
		t.Fatal("LRU line 0 still resident after eviction")
	}
	if !c.Contains(4 * setStride) {
		t.Fatal("newly filled line not resident")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	lower := &fixedLower{latency: 100}
	c := testCache(lower)
	setStride := uint64(16 * LineSize)
	c.Access(0, 0, true) // dirty line
	for i := uint64(1); i < 5; i++ {
		c.Access(event.Time(i*1000), i*setStride, false)
	}
	if c.Writebacks() != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks())
	}
	// Lower sees 5 fills + 1 writeback.
	if lower.accesses != 6 {
		t.Fatalf("lower accesses = %d, want 6", lower.accesses)
	}
}

func TestCacheIndexShiftUsesAllSets(t *testing.T) {
	lower := &fixedLower{latency: 100}
	cfg := CacheConfig{Name: "b", SizeBytes: 4 * 1024, Ways: 4,
		HitLatency: 10, ThroughputCycles: 1, IndexShift: 3}
	c := NewCache(cfg, lower)
	// Lines 0, 8, 16, ... (bank-interleaved stride 8) should map to
	// different sets with IndexShift=3.
	for i := uint64(0); i < 16; i++ {
		c.Access(event.Time(i*1000), i*8*LineSize, false)
	}
	if c.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0 (index shift should spread sets)", c.Evictions())
	}
}

func TestDRAMBankQueueing(t *testing.T) {
	d := NewDRAM(DRAMConfig{Name: "d", Banks: 4, Latency: 200, BurstCycles: 4})
	d.Access(0, 0, false)
	// Second access to the same bank at the same instant queues behind the
	// burst window.
	t2 := d.Access(0, 0, false)
	if t2 != 4+200 {
		t.Fatalf("queued access done at %d, want 204", t2)
	}
	// Different bank does not queue.
	t3 := d.Access(0, LineSize, false)
	if t3 != 200 {
		t.Fatalf("other-bank access done at %d, want 200", t3)
	}
}

func testHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		NumCUs:            4,
		CUsPerScalarBlock: 2,
		L1V:               CacheConfig{Name: "l1v", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
		L1I:               CacheConfig{Name: "l1i", SizeBytes: 32 * 1024, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
		L1K:               CacheConfig{Name: "l1k", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
		L2:                CacheConfig{Name: "l2", SizeBytes: 256 * 1024, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
		L2Banks:           8,
		DRAM:              DRAMConfig{Name: "dram", Banks: 16, Latency: 250, BurstCycles: 8},
	})
}

func TestHierarchyCoalescing(t *testing.T) {
	h := testHierarchy()
	// 64 lanes all in one cache line: one L1 access.
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(0x10000 + (i%16)*4)
	}
	h.VectorAccess(0, 0, addrs, false)
	s := h.CollectStats()
	if s.L1VHits+s.L1VMisses != 1 {
		t.Fatalf("coalesced access produced %d L1 accesses, want 1", s.L1VHits+s.L1VMisses)
	}
	// Scattered: 64 lanes, 64 distinct lines.
	for i := range addrs {
		addrs[i] = uint64(0x100000 + i*LineSize)
	}
	h.VectorAccess(0, 0, addrs, false)
	s = h.CollectStats()
	if s.L1VHits+s.L1VMisses != 65 {
		t.Fatalf("scattered access total = %d L1 accesses, want 65", s.L1VHits+s.L1VMisses)
	}
}

func TestHierarchyScatteredSlowerThanCoalesced(t *testing.T) {
	h := testHierarchy()
	co := make([]uint64, 64)
	sc := make([]uint64, 64)
	for i := range co {
		co[i] = uint64(0x10000 + (i%16)*4)
		sc[i] = uint64(0x200000 + i*LineSize)
	}
	tCo := h.VectorAccess(0, 0, co, false)
	h2 := testHierarchy()
	tSc := h2.VectorAccess(0, 1, sc, false)
	if tSc <= tCo {
		t.Fatalf("scattered access (%d) not slower than coalesced (%d)", tSc, tCo)
	}
}

func TestHierarchyResetClearsState(t *testing.T) {
	h := testHierarchy()
	h.VectorAccess(0, 0, []uint64{0x40000}, false)
	h.ScalarAccess(0, 0, 0x5000)
	h.InstFetch(0, 0, 0x6000)
	h.Reset()
	s := h.CollectStats()
	if s.L1VHits+s.L1VMisses+s.L1KHits+s.L1KMisses+s.L1IHits+s.L1IMisses != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
}

func TestHierarchyScalarBlockSharing(t *testing.T) {
	h := testHierarchy()
	// CUs 0 and 1 share an L1K; CU 2 uses another.
	h.ScalarAccess(0, 0, 0x9000)
	h.ScalarAccess(1000, 1, 0x9000) // should hit in the shared cache
	s := h.CollectStats()
	if s.L1KHits != 1 || s.L1KMisses != 1 {
		t.Fatalf("scalar block sharing: hits=%d misses=%d, want 1/1", s.L1KHits, s.L1KMisses)
	}
	h.ScalarAccess(2000, 2, 0x9000) // different block: miss (but L2 hit)
	s = h.CollectStats()
	if s.L1KMisses != 2 {
		t.Fatalf("cross-block access should miss: misses=%d", s.L1KMisses)
	}
	if s.L2Hits != 1 {
		t.Fatalf("second block's miss should hit L2: l2 hits=%d", s.L2Hits)
	}
}

func TestHierarchyEmptyVectorAccess(t *testing.T) {
	h := testHierarchy()
	done := h.VectorAccess(100, 0, nil, false)
	if done <= 100 {
		t.Fatalf("empty access done at %d, want > 100", done)
	}
}

func TestConfigValidation(t *testing.T) {
	hc := testHierarchy().Config()
	for _, tc := range []struct {
		name      string
		size, way int
		ok        bool
	}{
		{"indivisible", 1000, 3, false},
		{"zero ways", 4096, 0, false},
		{"three sets", 3 * 4 * LineSize, 4, false},
		{"seventeen ways", 16 * 17 * LineSize, 17, false},
		{"sixteen ways", 16 * 16 * LineSize, 16, true},
		{"three ways, four sets", 4 * 3 * LineSize, 3, true},
		{"one way, one set", LineSize, 1, true},
	} {
		cc := CacheConfig{Name: tc.name, SizeBytes: tc.size, Ways: tc.way}
		if err := cc.Validate(); (err == nil) != tc.ok {
			t.Errorf("cache %s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		// A cache the hierarchy cannot build must be the hierarchy's error,
		// not a panic inside NewHierarchy.
		hc.L2 = cc
		if err := hc.Validate(); (err == nil) != tc.ok {
			t.Errorf("hierarchy with L2 %s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		} else if tc.ok {
			NewHierarchy(hc)
		}
	}
	badDRAM := DRAMConfig{Name: "x", Banks: 3}
	if err := badDRAM.Validate(); err == nil {
		t.Error("non-power-of-two bank count accepted")
	}
	h := HierarchyConfig{NumCUs: 5, CUsPerScalarBlock: 2}
	if err := h.Validate(); err == nil {
		t.Error("indivisible scalar-block config accepted")
	}
}

func TestAtomicAccessExecutesAtL2(t *testing.T) {
	h := testHierarchy()
	// One hot line: 64 lanes serialize at a single L2 bank port. Warm the
	// lines first so the comparison isolates serialization from cold
	// misses.
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = 0x40000
	}
	h.AtomicAccess(0, 0, hot)
	tHot := h.AtomicAccess(100000, 0, hot) - 100000
	// Spread across lines mapping to different banks.
	h2 := testHierarchy()
	spread := make([]uint64, 64)
	for i := range spread {
		spread[i] = uint64(0x40000 + i*LineSize)
	}
	h2.AtomicAccess(0, 0, spread)
	tSpread := h2.AtomicAccess(100000, 0, spread) - 100000
	if tHot <= tSpread {
		t.Fatalf("hot-line atomics (%d) not slower than spread (%d)", tHot, tSpread)
	}
	// Atomics bypass the L1 entirely.
	s := h.CollectStats()
	if s.L1VHits+s.L1VMisses != 0 {
		t.Fatalf("atomics touched the L1: %+v", s)
	}
	if s.L2Hits+s.L2Misses == 0 {
		t.Fatal("atomics did not reach the L2")
	}
	if h.AtomicAccess(10, 1, nil) <= 10 {
		t.Fatal("empty atomic access must still cost time")
	}
}

// TestHierarchyMetricsAccumulateAcrossResets checks the registry-backed
// stats' defining property: Reset clears the per-kernel accessors but the
// run-cumulative registry counters keep growing, and hit/miss totals match
// what the accessors saw per kernel.
func TestHierarchyMetricsAccumulateAcrossResets(t *testing.T) {
	reg := obs.NewRegistry()
	h := testHierarchy()
	h.SetMetrics(reg)

	addrs := []uint64{0, 64, 128}
	var wantHits, wantMisses uint64
	for kernel := 0; kernel < 3; kernel++ {
		h.Reset()
		h.VectorAccess(0, 0, addrs, false) // cold: 3 misses
		h.VectorAccess(100, 0, addrs, false)
		s := h.CollectStats()
		wantHits += s.L1VHits
		wantMisses += s.L1VMisses
		if s.L1VMisses != 3 || s.L1VHits != 3 {
			t.Fatalf("kernel %d: per-kernel stats = %+v, want 3 hits / 3 misses", kernel, s)
		}
	}
	h.FlushMetrics() // the last kernel's counts; Reset published the earlier ones
	h.FlushMetrics() // a second flush publishes nothing twice
	snap := reg.Snapshot()
	if got := snap.SumCounters("sim_cache_hits_total", obs.L("level", "L1V")); got != wantHits {
		t.Fatalf("registry L1V hits = %d, want %d", got, wantHits)
	}
	if got := snap.SumCounters("sim_cache_misses_total", obs.L("level", "L1V")); got != wantMisses {
		t.Fatalf("registry L1V misses = %d, want %d", got, wantMisses)
	}
	if got := snap.SumCounters("sim_dram_accesses_total"); got == 0 {
		t.Fatal("DRAM accesses never reached the registry")
	}
	for _, hs := range snap.Histograms {
		if hs.Name == "sim_cache_latency_cycles" && hs.Labels["level"] == "L1V" && hs.Count == 0 {
			t.Fatal("L1V latency histogram recorded nothing")
		}
	}
}

// TestHierarchyConservationOnRandomStream drives a seeded random mix of
// vector, scalar, fetch and atomic operations from all four CUs — unit-stride
// runs and 4 MiB gathers, so every level misses, evicts and writes dirty
// lines back — and demands the flow-conservation invariants, traffic that
// really reached eviction and writeback at L1V and L2, and the same
// completion time per operation on a second, identically driven hierarchy.
func TestHierarchyConservationOnRandomStream(t *testing.T) {
	const ops = 3000
	run := func() (*Hierarchy, []event.Time) {
		h := testHierarchy()
		rng := rand.New(rand.NewSource(99))
		done := make([]event.Time, ops)
		for i := range done {
			now, cu := event.Time(i)*2000, rng.Intn(4)
			addrs := make([]uint64, 1+rng.Intn(64))
			base := uint64(rng.Intn(1 << 22))
			for l := range addrs {
				if i%3 == 0 {
					addrs[l] = uint64(rng.Intn(1<<22)) &^ 3
				} else {
					addrs[l] = base + uint64(l)*4
				}
			}
			switch k := rng.Intn(10); {
			case k < 6:
				done[i] = h.VectorAccess(now, cu, addrs, rng.Intn(3) == 0)
			case k < 8:
				done[i] = h.ScalarAccess(now, cu, addrs[0])
			case k < 9:
				done[i] = h.InstFetch(now, cu, addrs[0])
			default:
				done[i] = h.AtomicAccess(now, cu, addrs[:1+len(addrs)/8])
			}
		}
		return h, done
	}
	h, first := run()
	if err := h.CheckConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
	levels := h.levels()
	for i, name := range levelNames {
		if s := totals(levels[i]); (name == "L1V" || name == "L2") && (s[2] == 0 || s[3] == 0) {
			t.Errorf("%s: stream produced no evictions or writebacks: %v", name, s)
		}
	}
	h2, second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d: done %d on the first run, %d on the second", i, first[i], second[i])
		}
	}
	if h.CollectStats() != h2.CollectStats() {
		t.Errorf("stats differ between identical runs:\n%+v\n%+v", h.CollectStats(), h2.CollectStats())
	}
}

// TestHierarchyAccessZeroAlloc pins the serial access surface: coalescing
// (stream and full gather), the three cache levels and the DRAM touch the
// allocator zero times, with or without a registry attached.
func TestHierarchyAccessZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var stream, gather [64]uint64
	for i := range gather {
		stream[i] = 0x10000 + uint64(i)*4
		gather[i] = uint64(rng.Intn(1<<24)) &^ 3
	}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		h := testHierarchy()
		if reg != nil {
			h.SetMetrics(reg)
		}
		now := event.Time(0)
		testutil.MustZeroAllocs(t, "Hierarchy.VectorAccess/ScalarAccess/InstFetch/AtomicAccess", func() {
			now += 100
			h.VectorAccess(now, 0, stream[:], true)
			h.VectorAccess(now, 1, gather[:], false)
			h.ScalarAccess(now, 2, gather[0])
			h.InstFetch(now, 3, gather[1])
			h.AtomicAccess(now, 0, gather[:8])
			for i := range gather {
				gather[i] += 4096 + LineSize
			}
		})
	}
}

// TestLatencyTallyMatchesPerAccessObservation: a level's batched latency
// tally must leave its histogram exactly as observing every access on its own
// does — bucket by bucket, count and sum — for latencies on both sides of
// every bucket bound, past the last one, and in several flushes.
func TestLatencyTallyMatchesPerAccessObservation(t *testing.T) {
	lats := []event.Time{0, 1, 1, 2, 3}
	for b := event.Time(4); b <= 1<<15; b *= 2 {
		lats = append(lats, b-1, b, b, b+1)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		lats = append(lats, event.Time(rng.Int63n(1<<uint(rng.Intn(20)))))
	}
	batched, single := obs.NewRegistry(), obs.NewRegistry()
	tally := latTally{hist: batched.Histogram("lat", latBounds)}
	ref := single.Histogram("lat", latBounds)
	for i, l := range lats {
		tally.observe(l)
		ref.Observe(float64(l))
		if i%1000 == 999 {
			tally.flush()
		}
	}
	tally.flush()
	got, want := batched.Snapshot().Histograms[0], single.Snapshot().Histograms[0]
	if got.Count != want.Count || got.Sum != want.Sum || !slices.Equal(got.Buckets, want.Buckets) {
		t.Fatalf("batched tally %+v\nper-access observation %+v", got, want)
	}
}
