package timing

import (
	"testing"

	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

func testHier(numCUs int) *mem.Hierarchy {
	return mem.NewHierarchy(mem.HierarchyConfig{
		NumCUs:            numCUs,
		CUsPerScalarBlock: 1,
		L1V:               mem.CacheConfig{Name: "l1v", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
		L1I:               mem.CacheConfig{Name: "l1i", SizeBytes: 32 * 1024, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
		L1K:               mem.CacheConfig{Name: "l1k", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
		L2:                mem.CacheConfig{Name: "l2", SizeBytes: 256 * 1024, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
		L2Banks:           8,
		DRAM:              mem.DRAMConfig{Name: "dram", Banks: 16, Latency: 250, BurstCycles: 8},
	})
}

// scaleProgram computes out[tid] = in[tid] * 2.0.
func scaleProgram() *isa.Program {
	b := isa.NewBuilder("scale")
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVLShl, isa.V(1), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFMul, isa.V(4), isa.V(3), isa.S(10))
	b.I(isa.OpVAdd, isa.V(5), isa.V(1), isa.S(9))
	b.Store(isa.OpVStore, isa.V(5), isa.V(4), 0)
	b.End()
	return b.MustBuild()
}

func scaleLaunch(warps int) (*kernel.Launch, uint64) {
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	in := m.Alloc(uint64(4 * n))
	out := m.Alloc(uint64(4 * n))
	for i := 0; i < n; i++ {
		m.WriteF32(in+uint64(4*i), float32(i))
	}
	var two uint32 = 0x40000000 // float32(2.0)
	return &kernel.Launch{
		Name: "scale", Program: scaleProgram(), Memory: m,
		NumWorkgroups: warps, WarpsPerGroup: 1,
		Args: []uint32{uint32(in), uint32(out), two},
	}, out
}

func runDetailed(t *testing.T, numCUs int, l *kernel.Launch, obs Observer) Result {
	t.Helper()
	m := NewMachine(DefaultCompute(numCUs), testHier(numCUs), obs)
	res, err := m.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDetailedMatchesFunctionalResults(t *testing.T) {
	l, out := scaleLaunch(8)
	res := runDetailed(t, 4, l, Observer{})
	if !res.Complete {
		t.Fatal("run not complete")
	}
	if res.EndTime <= 0 {
		t.Fatal("EndTime not positive")
	}
	for i := 0; i < 8*kernel.WavefrontSize; i++ {
		got := l.Memory.ReadF32(out + uint64(4*i))
		if want := float32(2 * i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	// Instruction count matches an independent functional execution.
	l2, _ := scaleLaunch(8)
	insts, err := emu.RunKernelFunctional(l2)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstCount != insts {
		t.Fatalf("detailed insts %d != functional insts %d", res.InstCount, insts)
	}
	if res.WarpsSimulated != 8 {
		t.Fatalf("WarpsSimulated = %d, want 8", res.WarpsSimulated)
	}
}

func TestMoreCUsRunFaster(t *testing.T) {
	l1, _ := scaleLaunch(1024)
	slow := runDetailed(t, 2, l1, Observer{})
	l2, _ := scaleLaunch(1024)
	fast := runDetailed(t, 16, l2, Observer{})
	if fast.EndTime >= slow.EndTime {
		t.Fatalf("16 CUs (%d) not faster than 2 CUs (%d)", fast.EndTime, slow.EndTime)
	}
}

func TestMoreWorkTakesLonger(t *testing.T) {
	l1, _ := scaleLaunch(8)
	small := runDetailed(t, 4, l1, Observer{})
	l2, _ := scaleLaunch(256)
	big := runDetailed(t, 4, l2, Observer{})
	if big.EndTime <= small.EndTime {
		t.Fatalf("256 warps (%d) not slower than 8 warps (%d)", big.EndTime, small.EndTime)
	}
}

type countingObserver struct {
	starts, retires, insts, blocks int
	lastRetire                     event.Time
	badInterval                    bool
}

func (o *countingObserver) OnWarpStart(now event.Time, w *emu.Warp) { o.starts++ }
func (o *countingObserver) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	o.retires++
	if now > o.lastRetire {
		o.lastRetire = now
	}
	if issue > now {
		o.badInterval = true
	}
}
func (o *countingObserver) OnInstIssued(now event.Time, cuID int, w *emu.Warp, c isa.FUClass, lat event.Time) {
	o.insts++
}
func (o *countingObserver) OnBlockRetired(now event.Time, w *emu.Warp, b int, enter, exit event.Time) {
	o.blocks++
	if exit < enter {
		o.badInterval = true
	}
}

func (o *countingObserver) observer() Observer {
	return Observer{WarpStart: o.OnWarpStart, WarpRetired: o.OnWarpRetired,
		InstIssued: o.OnInstIssued, BlockRetired: o.OnBlockRetired}
}

func TestObserverCallbacks(t *testing.T) {
	l, _ := scaleLaunch(8)
	obs := &countingObserver{}
	res := runDetailed(t, 4, l, obs.observer())
	if obs.starts != 8 || obs.retires != 8 {
		t.Fatalf("starts=%d retires=%d, want 8/8", obs.starts, obs.retires)
	}
	if uint64(obs.insts) != res.InstCount {
		t.Fatalf("observer saw %d insts, result says %d", obs.insts, res.InstCount)
	}
	// scale has one basic block per warp (no branches).
	if obs.blocks != 8 {
		t.Fatalf("blocks retired = %d, want 8", obs.blocks)
	}
	if obs.badInterval {
		t.Fatal("observer saw an inverted interval")
	}
	if obs.lastRetire > res.EndTime {
		t.Fatalf("warp retired at %d after end time %d", obs.lastRetire, res.EndTime)
	}
}

func TestStopDispatchGate(t *testing.T) {
	l, _ := scaleLaunch(64)
	dispatched := 0
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	m.SetStopDispatch(func() bool {
		dispatched++
		return dispatched > 10 // allow ~10 dispatch checks
	})
	res, err := m.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("gated run reported complete")
	}
	if res.NextWG >= 64 || res.NextWG == 0 {
		t.Fatalf("NextWG = %d, want in (0, 64)", res.NextWG)
	}
	if res.WarpsSimulated != res.NextWG {
		t.Fatalf("simulated %d warps but dispatched %d groups", res.WarpsSimulated, res.NextWG)
	}
}

// barrierProgram: warps exchange LDS values across a barrier (same pattern
// as the emu test, but under timing-interleaved execution).
func barrierLaunch(groups, warpsPerGroup int) (*kernel.Launch, uint64) {
	b := isa.NewBuilder("ldsx")
	b.I(isa.OpSLShl, isa.S(4), isa.S(1), isa.Imm(2))
	b.I(isa.OpSAdd, isa.S(5), isa.S(1), isa.Imm(1))
	b.I(isa.OpVMov, isa.V(1), isa.S(4))
	b.I(isa.OpVMov, isa.V(2), isa.S(5))
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(2), 0)
	b.Barrier()
	b.I(isa.OpSAdd, isa.S(6), isa.S(1), isa.Imm(1))
	b.I(isa.OpSAnd, isa.S(6), isa.S(6), isa.Imm(int32(warpsPerGroup-1)))
	b.I(isa.OpSLShl, isa.S(6), isa.S(6), isa.Imm(2))
	b.I(isa.OpVMov, isa.V(3), isa.S(6))
	b.Load(isa.OpLDSLoad, isa.V(4), isa.V(3), 0)
	b.I(isa.OpSLShl, isa.S(7), isa.S(2), isa.Imm(2))
	b.I(isa.OpSAdd, isa.S(7), isa.S(7), isa.S(8))
	b.I(isa.OpVMov, isa.V(5), isa.S(7))
	b.Store(isa.OpVStore, isa.V(5), isa.V(4), 0)
	b.End()
	b.SetLDS(4 * warpsPerGroup)
	p := b.MustBuild()
	m := mem.NewFlat()
	out := m.Alloc(uint64(4 * groups * warpsPerGroup))
	return &kernel.Launch{
		Name: "ldsx", Program: p, Memory: m,
		NumWorkgroups: groups, WarpsPerGroup: warpsPerGroup,
		Args: []uint32{uint32(out)},
	}, out
}

func TestBarrierSynchronizationUnderTiming(t *testing.T) {
	const groups, wpg = 6, 4
	l, out := barrierLaunch(groups, wpg)
	res := runDetailed(t, 2, l, Observer{})
	if !res.Complete {
		t.Fatal("barrier kernel did not complete")
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < wpg; i++ {
			want := uint32((i+1)%wpg + 1)
			got := l.Memory.Read32(out + uint64(4*(g*wpg+i)))
			if got != want {
				t.Fatalf("group %d warp %d read %d, want %d", g, i, got, want)
			}
		}
	}
}

func TestWorkgroupTooLargeRejected(t *testing.T) {
	l, _ := scaleLaunch(1)
	l.WarpsPerGroup = 1000
	l.NumWorkgroups = 1
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	if _, err := m.Run(l); err == nil {
		t.Fatal("oversized workgroup accepted")
	}
}

func TestDeterministicEndTimes(t *testing.T) {
	l1, _ := scaleLaunch(32)
	r1 := runDetailed(t, 4, l1, Observer{})
	l2, _ := scaleLaunch(32)
	r2 := runDetailed(t, 4, l2, Observer{})
	if r1.EndTime != r2.EndTime || r1.InstCount != r2.InstCount {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
}

func TestConfigValidate(t *testing.T) {
	c := DefaultCompute(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.SIMDsPerCU = 0
	if err := c.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	c = DefaultCompute(4)
	c.IssueOccupancy[0] = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero occupancy accepted")
	}
}

func TestGateTimeSemantics(t *testing.T) {
	l, _ := scaleLaunch(512)
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	dispatches := 0
	m.SetStopDispatch(func() bool {
		dispatches++
		return dispatches > 100
	})
	res, err := m.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("expected gated run")
	}
	if res.GateTime > res.EndTime {
		t.Fatalf("GateTime %d after EndTime %d", res.GateTime, res.EndTime)
	}
	if res.GateTime <= 0 {
		t.Fatalf("GateTime = %d, want positive (gate fired mid-run)", res.GateTime)
	}
}

func TestGateTimeEqualsEndTimeWhenUngated(t *testing.T) {
	l, _ := scaleLaunch(8)
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	res, err := m.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.GateTime != res.EndTime {
		t.Fatalf("ungated run: complete=%v gate=%d end=%d", res.Complete, res.GateTime, res.EndTime)
	}
}

func TestMachineMetricsFlushedAfterRun(t *testing.T) {
	l, _ := scaleLaunch(8)
	reg := obs.NewRegistry()
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	m.SetMetrics(reg)
	res, err := m.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.SumCounters("sim_cu_insts_issued"); got != res.InstCount {
		t.Fatalf("sim_cu_insts_issued = %d, want %d", got, res.InstCount)
	}
	if snap.SumCounters("sim_cu_issue_cycles") == 0 {
		t.Fatal("sim_cu_issue_cycles not populated")
	}
	if got := snap.SumCounters("sim_cu_warps_retired"); got != 8 {
		t.Fatalf("sim_cu_warps_retired = %d, want 8", got)
	}
	// The scale kernel executes a waitcnt after a vector load, so some
	// stall cycles must have been recorded.
	if snap.SumCounters("sim_cu_stall_cycles") == 0 {
		t.Fatal("sim_cu_stall_cycles not populated")
	}
	// Per-FU-class issue counts must agree with the per-CU total.
	if got := snap.SumCounters("sim_fu_insts_issued"); got != res.InstCount {
		t.Fatalf("sim_fu_insts_issued = %d, want %d", got, res.InstCount)
	}
	// Per-CU counters carry a cu label.
	var labeled int
	for _, c := range snap.Counters {
		if c.Name == "sim_cu_insts_issued" {
			if c.Labels["cu"] == "" {
				t.Fatalf("counter %s missing cu label: %+v", c.Name, c.Labels)
			}
			labeled++
		}
	}
	if labeled == 0 {
		t.Fatal("no per-CU sim_cu_insts_issued series found")
	}
}

// TestMachineMetricsArePerRun: a reused machine publishes each run's tallies
// once, so after two runs of one launch the registry reads exactly double
// what one run publishes (it used to re-add the machine's running totals on
// every Run: 3x after two). The series compared do not depend on timing,
// which a reused machine's warm caches and dispatch cursors shift.
func TestMachineMetricsArePerRun(t *testing.T) {
	publish := func(runs int) obs.Snapshot {
		l, _ := scaleLaunch(64)
		reg := obs.NewRegistry()
		m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
		m.SetMetrics(reg)
		for i := 0; i < runs; i++ {
			if _, err := m.Run(l); err != nil {
				t.Fatal(err)
			}
		}
		return reg.Snapshot()
	}
	once, twice := publish(1), publish(2)
	for _, name := range []string{"sim_cu_insts_issued", "sim_cu_issue_cycles", "sim_cu_warps_retired", "sim_fu_insts_issued"} {
		one, two := once.SumCounters(name), twice.SumCounters(name)
		if one == 0 || two != 2*one {
			t.Errorf("%s: %d after one run, %d after two", name, one, two)
		}
	}
}

// placementChecker compares, at every warp start and retirement, the
// dispatch bookkeeping against a plain scan: roomyCUs must count exactly the
// CUs with room for a workgroup, and findFreeCU — early-out, wrapped cursor
// — must pick the CU the modulo scan from rrCU picks and leave the cursor
// just past it.
type placementChecker struct {
	t      *testing.T
	m      *Machine
	checks int
	none   int // checks where no CU had room
}

func (o *placementChecker) OnWarpStart(event.Time, *emu.Warp)               { o.check() }
func (o *placementChecker) OnWarpRetired(event.Time, *emu.Warp, event.Time) { o.check() }

func (o *placementChecker) check() {
	m, n, wpg := o.m, len(o.m.cus), o.m.launch.WarpsPerGroup
	roomy, want := 0, (*cu)(nil)
	for i := range m.cus {
		if m.cus[i].freeSlots >= wpg {
			roomy++
		}
		if c := m.cus[(m.rrCU+i)%n]; want == nil && c.freeSlots >= wpg {
			want = c
		}
	}
	if m.roomyCUs != roomy {
		o.t.Fatalf("roomyCUs = %d, but %d CUs have room for %d warps", m.roomyCUs, roomy, wpg)
	}
	cursor := m.rrCU
	got := m.findFreeCU()
	if got != want {
		o.t.Fatalf("findFreeCU from cursor %d picked %v, the plain scan picks %v", cursor, got, want)
	}
	if got != nil && m.rrCU != (got.id+1)%n {
		o.t.Fatalf("cursor after picking CU %d is %d", got.id, m.rrCU)
	}
	m.rrCU = cursor
	o.checks++
	if want == nil {
		o.none++
	}
}

func TestDispatchPlacementMatchesPlainScan(t *testing.T) {
	for _, wpg := range []int{1, 16} { // 16 leaves 8 of a CU's 40 slots unusable
		l, _ := barrierLaunch(4000/wpg, wpg)
		o := &placementChecker{t: t}
		o.m = NewMachine(DefaultCompute(4), testHier(4), Observer{WarpStart: o.OnWarpStart, WarpRetired: o.OnWarpRetired})
		if res, err := o.m.Run(l); err != nil || !res.Complete {
			t.Fatalf("wpg=%d: run: %+v, %v", wpg, res, err)
		}
		if o.none == 0 || o.none == o.checks {
			t.Fatalf("wpg=%d: %d of %d checks saw a full machine; want some of each", wpg, o.none, o.checks)
		}
	}
}
