package mem

import (
	"math/rand"
	"testing"

	"photon/internal/sim/event"
	"photon/internal/testutil"
)

// TestLanePortMatchesSerialSingleCU drives the same access schedule through
// the serial Hierarchy surface and through a LanePort with a barrier drain.
// On a single CU with monotonically increasing issue times, the drain's
// (at, cu, seq) order equals the serial call order, so every completion
// time and every counter must match exactly — the laned path is the same
// machine arithmetic, deferred.
func TestLanePortMatchesSerialSingleCU(t *testing.T) {
	type op struct {
		at     event.Time
		kind   string
		addrs  []uint64
		write  bool
		serial event.Time
		laned  event.Time
	}
	ops := []*op{
		{at: 0, kind: "vec", addrs: []uint64{0x10000, 0x10004}},                // miss
		{at: 100, kind: "vec", addrs: []uint64{0x10008}},                       // hit
		{at: 200, kind: "scalar", addrs: []uint64{0x20000}},                    // miss
		{at: 300, kind: "fetch", addrs: []uint64{0x30000}},                     // miss
		{at: 400, kind: "atomic", addrs: []uint64{0x40000, 0x40004}},           // two L2 RMWs
		{at: 500, kind: "vec", addrs: []uint64{0x10000, 0x50000}, write: true}, // hit + miss
		{at: 600, kind: "vec", addrs: nil},                                     // empty mask
	}

	hs := testHierarchy()
	for _, o := range ops {
		switch o.kind {
		case "vec":
			o.serial = hs.VectorAccess(o.at, 0, o.addrs, o.write)
		case "scalar":
			o.serial = hs.ScalarAccess(o.at, 0, o.addrs[0])
		case "fetch":
			o.serial = hs.InstFetch(o.at, 0, o.addrs[0])
		case "atomic":
			o.serial = hs.AtomicAccess(o.at, 0, o.addrs)
		}
	}

	hl := testHierarchy()
	port := hl.NewLanePort(0, hl.cfg.NumCUs-1)
	for _, o := range ops {
		o := o
		done := func(d event.Time) { o.laned = d }
		switch o.kind {
		case "vec":
			port.VectorAccess(o.at, 0, o.addrs, o.write, done)
		case "scalar":
			port.ScalarAccess(o.at, 0, o.addrs[0], done)
		case "fetch":
			port.InstFetch(o.at, 0, o.addrs[0], done)
		case "atomic":
			port.AtomicAccess(o.at, 0, o.addrs, done)
		}
	}
	hl.DrainLaneRequests([]*LanePort{port})

	for i, o := range ops {
		if o.laned != o.serial {
			t.Errorf("op %d (%s@%d): laned done %d, serial %d", i, o.kind, o.at, o.laned, o.serial)
		}
	}
	if hs.CollectStats() != hl.CollectStats() {
		t.Errorf("stats diverge:\nserial %+v\nlaned  %+v", hs.CollectStats(), hl.CollectStats())
	}
	if err := hl.CheckConservation(); err != nil {
		t.Errorf("laned conservation: %v", err)
	}
	if hl.atomicAccesses != hs.atomicAccesses {
		t.Errorf("atomic accesses: laned %d, serial %d", hl.atomicAccesses, hs.atomicAccesses)
	}
}

// TestLaneDrainOrderInvariance records the same per-CU schedules through
// two partitions whose ports are visited in opposite orders; after the
// drain, completion times and hierarchy state must be identical — the
// (at, cu, seq) sort erases the recording interleaving, which is the core
// determinism property the laned engine relies on.
func TestLaneDrainOrderInvariance(t *testing.T) {
	run := func(reversed bool) ([]event.Time, Stats, error) {
		h := testHierarchy()
		pa := h.NewLanePort(0, 1) // block 0
		pb := h.NewLanePort(2, 3) // block 1
		var times []event.Time
		capture := func(d event.Time) { times = append(times, d) }

		recA := func() {
			pa.VectorAccess(0, 0, []uint64{0x11000}, false, capture)
			pa.VectorAccess(10, 1, []uint64{0x12000}, true, capture)
			pa.AtomicAccess(20, 0, []uint64{0x40000}, capture)
		}
		recB := func() {
			pb.VectorAccess(0, 2, []uint64{0x11000}, false, capture) // same line as lane A
			pb.ScalarAccess(5, 3, 0x21000, capture)
			pb.AtomicAccess(20, 3, []uint64{0x40000}, capture) // same atomic word
		}
		if reversed {
			recB()
			recA()
		} else {
			recA()
			recB()
		}
		// Completion order differs with recording order; re-key by sorting on
		// capture being per-callback is messy, so instead compare the sorted
		// drain result through hierarchy state plus the multiset of times.
		h.DrainLaneRequests([]*LanePort{pa, pb})
		return times, h.CollectStats(), h.CheckConservation()
	}

	t1, s1, e1 := run(false)
	t2, s2, e2 := run(true)
	if e1 != nil || e2 != nil {
		t.Fatalf("conservation: %v / %v", e1, e2)
	}
	if s1 != s2 {
		t.Errorf("stats depend on recording order:\n%+v\n%+v", s1, s2)
	}
	sum := func(ts []event.Time) (s event.Time) {
		for _, v := range ts {
			s += v
		}
		return
	}
	if len(t1) != len(t2) || sum(t1) != sum(t2) {
		t.Errorf("completion times depend on recording order: %v vs %v", t1, t2)
	}
}

// TestDrainLaneRequestsZeroAllocSteadyState pins the single-port barrier
// fast path: the drain swaps buffers with the port instead of copying and
// skips the sort when the batch is already in (at, cu, seq) order, so a
// warm-set drain touches the allocator zero times.
func TestDrainLaneRequestsZeroAllocSteadyState(t *testing.T) {
	h := testHierarchy()
	p := h.NewLanePort(0, h.cfg.NumCUs-1)
	ports := []*LanePort{p}
	fill := func() {
		for i := 0; i < 64; i++ {
			p.record(event.Time(i), 0, uint64(0x10000+(i%8)*LineSize), i%2 == 0, false, nil)
		}
	}
	for i := 0; i < 3; i++ { // warm the L2/DRAM sets and both swap buffers
		fill()
		h.DrainLaneRequests(ports)
	}
	testutil.MustZeroAllocs(t, "Hierarchy.DrainLaneRequests (single port, sorted)", func() {
		fill()
		h.DrainLaneRequests(ports)
	})
}

// TestFlatViewConcurrent hammers disjoint regions of one Flat through
// per-goroutine views (the lane usage pattern) and checks the data lands —
// run under -race this is the page-map locking test.
func TestFlatViewConcurrent(t *testing.T) {
	f := NewFlat()
	base := f.Alloc(1 << 20)
	const lanes = 8
	const words = 4096
	done := make(chan struct{})
	for l := 0; l < lanes; l++ {
		go func(l int) {
			defer func() { done <- struct{}{} }()
			v := f.View()
			for i := 0; i < words; i++ {
				addr := base + uint64(l*words+i)*4
				v.Write32(addr, uint32(l*words+i))
				if got := v.Read32(addr); got != uint32(l*words+i) {
					t.Errorf("lane %d readback mismatch at %#x", l, addr)
					return
				}
			}
		}(l)
	}
	for l := 0; l < lanes; l++ {
		<-done
	}
	for i := 0; i < lanes*words; i++ {
		if got := f.Read32(base + uint64(i)*4); got != uint32(i) {
			t.Fatalf("word %d = %d after concurrent writes", i, got)
		}
	}
}

// TestLanePortCountersMatchSerialOnRandomStream drives a seeded random mix of
// vector, scalar, fetch and atomic operations from all four CUs through the
// serial surface and through two lane ports. Issue times are far enough apart
// that the drain's (at, cu, seq) order is the serial call order, so the
// probe's two continuations must leave the same machine behind: equal
// completion time per operation and equal counters at every level.
func TestLanePortCountersMatchSerialOnRandomStream(t *testing.T) {
	hs, hl := testHierarchy(), testHierarchy()
	ports := []*LanePort{hl.NewLanePort(0, 1), hl.NewLanePort(2, 3)}
	rng := rand.New(rand.NewSource(99))
	const ops = 3000
	serial, laned := make([]event.Time, ops), make([]event.Time, ops)
	for i := 0; i < ops; i++ {
		now, cu := event.Time(i)*2000, rng.Intn(4)
		p := ports[cu/2]
		addrs := make([]uint64, 1+rng.Intn(64))
		base := uint64(rng.Intn(1 << 22))
		for l := range addrs {
			if i%3 == 0 { // gather over 4 MiB: misses everywhere, dirty evictions
				addrs[l] = uint64(rng.Intn(1<<22)) &^ 3
			} else {
				addrs[l] = base + uint64(l)*4
			}
		}
		done := func(d event.Time) { laned[i] = d }
		switch k := rng.Intn(10); {
		case k < 6:
			write := rng.Intn(3) == 0
			serial[i] = hs.VectorAccess(now, cu, addrs, write)
			p.VectorAccess(now, cu, addrs, write, done)
		case k < 8:
			serial[i] = hs.ScalarAccess(now, cu, addrs[0])
			p.ScalarAccess(now, cu, addrs[0], done)
		case k < 9:
			serial[i] = hs.InstFetch(now, cu, addrs[0])
			p.InstFetch(now, cu, addrs[0], done)
		default:
			serial[i] = hs.AtomicAccess(now, cu, addrs[:1+len(addrs)/8])
			p.AtomicAccess(now, cu, addrs[:1+len(addrs)/8], done)
		}
		if i%500 == 499 {
			hl.DrainLaneRequests(ports)
		}
	}
	hl.DrainLaneRequests(ports)
	for i := range serial {
		if serial[i] != laned[i] {
			t.Fatalf("op %d: laned done %d, serial %d", i, laned[i], serial[i])
		}
	}
	ls, ll := hs.levels(), hl.levels()
	for i, name := range levelNames {
		if s, l := totals(ls[i]), totals(ll[i]); s != l {
			t.Errorf("%s hits/misses/evictions/writebacks: laned %v, serial %v", name, l, s)
		} else if (name == "L1V" || name == "L2") && (s[2] == 0 || s[3] == 0) {
			t.Errorf("%s: stream produced no evictions or writebacks: %v", name, s)
		}
	}
	if hs.CollectStats() != hl.CollectStats() || hs.atomicAccesses != hl.atomicAccesses {
		t.Errorf("stats diverge:\nserial %+v\nlaned  %+v", hs.CollectStats(), hl.CollectStats())
	}
	if err := hl.CheckConservation(); err != nil {
		t.Errorf("laned conservation: %v", err)
	}
}
