package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// vecAddProgram computes out[tid] = a[tid] + b[tid] for tid < n with bounds
// masking. Args: s8=a, s9=b, s10=out, s11=n.
func vecAddProgram() *isa.Program {
	b := isa.NewBuilder("vecadd")
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6)) // s4 = warpID*64
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))    // v1 = tid
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.S(11))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2)) // byte offset
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.I(isa.OpVAdd, isa.V(5), isa.V(2), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(6), isa.V(5), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFAdd, isa.V(7), isa.V(4), isa.V(6))
	b.I(isa.OpVAdd, isa.V(8), isa.V(2), isa.S(10))
	b.Store(isa.OpVStore, isa.V(8), isa.V(7), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

func vecAddLaunch(t *testing.T, n, warps int) (*kernel.Launch, uint64, uint64, uint64) {
	t.Helper()
	m := mem.NewFlat()
	a := m.Alloc(uint64(4 * n))
	bb := m.Alloc(uint64(4 * n))
	out := m.Alloc(uint64(4 * n))
	for i := 0; i < n; i++ {
		m.WriteF32(a+uint64(4*i), float32(i))
		m.WriteF32(bb+uint64(4*i), float32(2*i))
	}
	l := &kernel.Launch{
		Name:          "vecadd",
		Program:       vecAddProgram(),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args:          []uint32{uint32(a), uint32(bb), uint32(out), uint32(n)},
	}
	return l, a, bb, out
}

func TestVecAddFunctional(t *testing.T) {
	const n = 150 // 3 warps, last one partially masked
	l, _, _, out := vecAddLaunch(t, n, 3)
	insts, err := RunKernelFunctional(l)
	if err != nil {
		t.Fatal(err)
	}
	if insts == 0 {
		t.Fatal("no instructions executed")
	}
	for i := 0; i < n; i++ {
		got := l.Memory.ReadF32(out + uint64(4*i))
		if want := float32(3 * i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	// Masked-out region beyond n stays zero.
	if got := l.Memory.ReadF32(out + uint64(4*n)); got != 0 {
		t.Fatalf("out[%d] = %v, want 0 (lane should be masked)", n, got)
	}
}

func TestWarpDispatchConventions(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 64, 1)
	l.WarpsPerGroup = 2
	l.NumWorkgroups = 3
	w := newWarp(l, 5, nil)
	if w.GroupID != 2 || w.IDInGroup != 1 {
		t.Fatalf("warp 5: group=%d idInGroup=%d, want 2,1", w.GroupID, w.IDInGroup)
	}
	if w.SReg(0) != 2 || w.SReg(1) != 1 || w.SReg(2) != 5 || w.SReg(3) != 2 {
		t.Fatalf("dispatch sregs = %d %d %d %d", w.SReg(0), w.SReg(1), w.SReg(2), w.SReg(3))
	}
	if w.VReg(0, 17) != 17 {
		t.Fatalf("lane id in v0 = %d, want 17", w.VReg(0, 17))
	}
	if w.SReg(kernel.ArgSGPRBase) == 0 {
		t.Fatal("args not loaded at ArgSGPRBase")
	}
}

func TestBBCountsMatchLoopTripCount(t *testing.T) {
	// Warp-uniform loop running 10 iterations.
	b := isa.NewBuilder("loop10")
	b.I(isa.OpSMov, isa.S(4), isa.Imm(0))
	b.Label("top")
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(4), isa.Imm(10))
	b.Br(isa.OpCBranchSCC1, "top")
	b.End()
	p := b.MustBuild()
	m := mem.NewFlat()
	l := &kernel.Launch{Name: "loop10", Program: p, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 1}
	w := newWarp(l, 0, nil)
	for !w.Done() {
		w.Step()
	}
	// Blocks: [0,1) entry, [1,4) body, [4,5) end.
	if got := w.BBCounts()[1]; got != 10 {
		t.Fatalf("loop body entered %d times, want 10", got)
	}
	if w.BBCounts()[0] != 1 || w.BBCounts()[2] != 1 {
		t.Fatalf("entry/exit counts = %d/%d, want 1/1", w.BBCounts()[0], w.BBCounts()[2])
	}
	if w.InstCount() != 1+3*10+1 {
		t.Fatalf("InstCount = %d, want 32", w.InstCount())
	}
}

func TestDivergentLaneLoop(t *testing.T) {
	// Each lane iterates `lane % 4` times; uses vector compare + exec
	// masking, like the SpMV inner loop.
	b := isa.NewBuilder("divloop")
	b.I(isa.OpVAnd, isa.V(1), isa.V(0), isa.Imm(3)) // bound = lane % 4
	b.I(isa.OpVMov, isa.V(2), isa.Imm(0))           // k = 0
	b.I(isa.OpVMov, isa.V(3), isa.Imm(0))           // acc = 0
	b.I(isa.OpSAndSaveExec, isa.Mask(1))            // (VCC garbage; set below)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1)) // restore full
	b.Label("top")
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(2), isa.V(1))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "exit")
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(1))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.Imm(1))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.Br(isa.OpSBranch, "top")
	b.Label("exit")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	p := b.MustBuild()
	m := mem.NewFlat()
	l := &kernel.Launch{Name: "divloop", Program: p, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 1}
	w := newWarp(l, 0, nil)
	for !w.Done() {
		w.Step()
	}
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if got, want := w.VReg(3, lane), uint32(lane%4); got != want {
			t.Fatalf("lane %d acc = %d, want %d", lane, got, want)
		}
	}
	if w.Exec() != ^uint64(0) {
		t.Fatalf("EXEC not restored: %#x", w.Exec())
	}
}

// ldsExchangeLaunch builds a launch of `groups` four-warp workgroups in which
// warp i stores (i+1)*100 to LDS[i] and, after a barrier, reads
// LDS[(i+1) % warps] into out[i]: LDS, a barrier segment and several warps
// per group.
func ldsExchangeLaunch(groups int) (l *kernel.Launch, out uint64) {
	const warps = 4
	b := isa.NewBuilder("ldsx")
	b.I(isa.OpSLShl, isa.S(4), isa.S(1), isa.Imm(2)) // s4 = warpInGroup*4
	b.I(isa.OpSAdd, isa.S(5), isa.S(1), isa.Imm(1))
	b.I(isa.OpSMul, isa.S(5), isa.S(5), isa.Imm(100)) // s5 = (i+1)*100
	b.I(isa.OpVMov, isa.V(1), isa.S(4))
	b.I(isa.OpVMov, isa.V(2), isa.S(5))
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(2), 0)
	b.Barrier()
	b.I(isa.OpSAdd, isa.S(6), isa.S(1), isa.Imm(1))
	b.I(isa.OpSAnd, isa.S(6), isa.S(6), isa.Imm(warps-1))
	b.I(isa.OpSLShl, isa.S(6), isa.S(6), isa.Imm(2))
	b.I(isa.OpVMov, isa.V(3), isa.S(6))
	b.Load(isa.OpLDSLoad, isa.V(4), isa.V(3), 0)
	// Store result to global memory at out[warpInGroup].
	b.I(isa.OpSLShl, isa.S(7), isa.S(1), isa.Imm(2))
	b.I(isa.OpSAdd, isa.S(7), isa.S(7), isa.S(8))
	b.I(isa.OpVMov, isa.V(5), isa.S(7))
	b.Store(isa.OpVStore, isa.V(5), isa.V(4), 0)
	b.End()
	b.SetLDS(64)
	m := mem.NewFlat()
	out = m.Alloc(4 * warps)
	return &kernel.Launch{
		Name: "ldsx", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: groups, WarpsPerGroup: warps,
		Args: []uint32{uint32(out)},
	}, out
}

// TestGroupBarrierLDSExchange validates segment-wise group execution.
func TestGroupBarrierLDSExchange(t *testing.T) {
	l, out := ldsExchangeLaunch(1)
	warps := l.WarpsPerGroup
	var g Group
	g.Reset(l, 0)
	if err := g.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warps; i++ {
		want := uint32((i+1)%warps+1) * 100
		if got := l.Memory.Read32(out + uint64(4*i)); got != want {
			t.Fatalf("warp %d read %d from LDS, want %d", i, got, want)
		}
	}
}

// TestVectorMemReportsAddresses: Step returns nil until the first vector
// load, then that load's lane addresses in lane order.
func TestVectorMemReportsAddresses(t *testing.T) {
	l, a, _, _ := vecAddLaunch(t, 64, 1)
	w := newWarp(l, 0, nil)
	var addrs []uint64
	var pc int
	for addrs == nil {
		if w.Done() {
			t.Fatal("no vector memory op executed")
		}
		pc = w.PC()
		addrs = w.Step()
	}
	if op := l.Program.Insts[pc].Op; op != isa.OpVLoad {
		t.Fatalf("first addresses came from %s at pc%d, want the first v_load", op, pc)
	}
	if len(addrs) != 64 {
		t.Fatalf("got %d lane addresses, want 64", len(addrs))
	}
	if addrs[0] != a {
		t.Fatalf("lane0 address %#x, want %#x", addrs[0], a)
	}
	if addrs[1] != a+4 {
		t.Fatalf("lane1 address %#x, want %#x", addrs[1], a+4)
	}
}

// TestStepRunKeepsLoadAddrs: Step executes a vector load together with the
// private run behind it — here ALU micro-ops that overwrite the address
// register and the loaded value — and the addresses it returns are still the
// load's.
func TestStepRunKeepsLoadAddrs(t *testing.T) {
	m := mem.NewFlat()
	buf := m.Alloc(4 * 64)
	for i := 0; i < 64; i++ {
		m.Write32(buf+uint64(4*i), uint32(100+i))
	}
	b := isa.NewBuilder("loadrun")
	b.I(isa.OpVLShl, isa.V(1), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.S(8))
	b.Waitcnt(0) // ends the first run, so the load starts its own Step
	b.Load(isa.OpVLoad, isa.V(2), isa.V(1), 0)
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.Imm(4096))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.Imm(1))
	b.I(isa.OpVMov, isa.V(2), isa.Imm(0))
	b.I(isa.OpSMov, isa.S(4), isa.Imm(7))
	b.Waitcnt(0)
	b.End()
	l := &kernel.Launch{Name: "loadrun", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{uint32(buf)}}
	w := newWarp(l, 0, nil)
	if w.Step() != nil || w.Step() != nil { // the two address micro-ops, s_waitcnt
		t.Fatal("Step returned addresses for register-only micro-ops or s_waitcnt")
	}
	if w.PC() != 3 || w.InstCount() != 3 {
		t.Fatalf("before the load: pc=%d insts=%d, want 3, 3", w.PC(), w.InstCount())
	}
	addrs := w.Step()
	if w.PC() != 8 || w.InstCount() != 8 {
		t.Fatalf("after the load and its 4-micro-op run: pc=%d insts=%d, want 8, 8", w.PC(), w.InstCount())
	}
	if len(addrs) != 64 {
		t.Fatalf("got %d lane addresses, want 64", len(addrs))
	}
	for lane, a := range addrs {
		if a != buf+uint64(4*lane) {
			t.Fatalf("lane %d address %#x, want the load's %#x", lane, a, buf+uint64(4*lane))
		}
	}
	if w.VReg(3, 5) != 106 || w.VReg(2, 5) != 0 || w.VReg(1, 5) != uint32(buf)+20+4096 || w.SReg(4) != 7 {
		t.Fatalf("the run did not execute: v3=%d v2=%d v1=%#x s4=%d", w.VReg(3, 5), w.VReg(2, 5), w.VReg(1, 5), w.SReg(4))
	}
}

func TestBarrierWithExitedWarpReleases(t *testing.T) {
	// Warp 0 hits a barrier; warp 1 exits without one. As on real hardware,
	// the barrier counts only live warps, so the group completes.
	b := isa.NewBuilder("exitbar")
	b.I(isa.OpSCmpEq, isa.Operand{}, isa.S(1), isa.Imm(0))
	b.Br(isa.OpCBranchSCC0, "skip")
	b.Barrier()
	b.Label("skip")
	b.End()
	p := b.MustBuild()
	m := mem.NewFlat()
	l := &kernel.Launch{Name: "exitbar", Program: p, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 2}
	var g Group
	g.Reset(l, 0)
	if err := g.RunFunctional(); err != nil {
		t.Fatalf("group with exited warp did not complete: %v", err)
	}
	for _, w := range g.Warps {
		if !w.Done() {
			t.Fatalf("warp %d not done", w.GlobalID)
		}
	}
}

func TestScalarMemLoad(t *testing.T) {
	m := mem.NewFlat()
	tbl := m.Alloc(64)
	m.Write32(tbl+8, 777)
	b := isa.NewBuilder("sload")
	b.Load(isa.OpSLoad, isa.S(4), isa.S(8), 8)
	b.End()
	p := b.MustBuild()
	l := &kernel.Launch{Name: "sload", Program: p, Memory: m,
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{uint32(tbl)}}
	w := newWarp(l, 0, nil)
	if addrs := w.Step(); len(addrs) != 1 || addrs[0] != tbl+8 {
		t.Fatalf("scalar load returned addresses %#x, want [%#x]", addrs, tbl+8)
	}
	if w.SReg(4) != 777 {
		t.Fatalf("s4 = %d, want 777", w.SReg(4))
	}
}

func TestAtomicAdd(t *testing.T) {
	m := mem.NewFlat()
	counter := m.Alloc(64)
	b := isa.NewBuilder("atomic_add")
	// All 64 lanes atomically add 1 to the same word; each lane receives a
	// distinct old value (lane order resolution).
	b.I(isa.OpVMov, isa.V(1), isa.S(8))
	b.I(isa.OpVAtomicAdd, isa.V(2), isa.V(1), isa.Imm(1))
	b.Waitcnt(0)
	b.End()
	p := b.MustBuild()
	l := &kernel.Launch{Name: "atomic_add", Program: p, Memory: m,
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{uint32(counter)}}
	w := newWarp(l, 0, nil)
	for !w.Done() {
		w.Step()
	}
	if got := m.Read32(counter); got != 64 {
		t.Fatalf("counter = %d, want 64", got)
	}
	seen := map[uint32]bool{}
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		old := w.VReg(2, lane)
		if old >= 64 || seen[old] {
			t.Fatalf("lane %d returned old value %d (dup or out of range)", lane, old)
		}
		seen[old] = true
	}
}

func TestAtomicMax(t *testing.T) {
	m := mem.NewFlat()
	cell := m.Alloc(64)
	m.Write32(cell, 17)
	b := isa.NewBuilder("atomic_max")
	// Lanes max the cell with their lane id; the result is max(17, 63).
	b.I(isa.OpVMov, isa.V(1), isa.S(8))
	b.I(isa.OpVAtomicMax, isa.V(2), isa.V(1), isa.V(0))
	b.Waitcnt(0)
	b.End()
	p := b.MustBuild()
	l := &kernel.Launch{Name: "atomic_max", Program: p, Memory: m,
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{uint32(cell)}}
	w := newWarp(l, 0, nil)
	for !w.Done() {
		op := l.Program.Insts[w.PC()].Op
		if addrs := w.Step(); op.IsAtomic() && len(addrs) != 64 {
			t.Fatalf("atomic returned %d lane addresses, want 64", len(addrs))
		}
	}
	if got := m.Read32(cell); got != 63 {
		t.Fatalf("cell = %d, want 63", got)
	}
	// Lane 0 saw the original value.
	if w.VReg(2, 0) != 17 {
		t.Fatalf("lane 0 old value = %d, want 17", w.VReg(2, 0))
	}
}

// TestPropertyRandomALUPrograms fuzzes the emulator with random straight-line
// vector-ALU programs: executing the same program twice must be
// deterministic, instruction counts must match program length, and register
// state must stay within the declared file sizes.
func TestPropertyRandomALUPrograms(t *testing.T) {
	ops := []isa.Op{
		isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVLShl, isa.OpVLShr,
		isa.OpVAnd, isa.OpVOr, isa.OpVXor, isa.OpVMin, isa.OpVMax,
		isa.OpVFAdd, isa.OpVFMul,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := isa.NewBuilder("fuzz")
		nInsts := 5 + rng.Intn(60)
		const regs = 8
		for i := 0; i < nInsts; i++ {
			op := ops[rng.Intn(len(ops))]
			dst := isa.V(1 + rng.Intn(regs))
			src0 := isa.V(rng.Intn(regs))
			var src1 isa.Operand
			if rng.Intn(2) == 0 {
				src1 = isa.V(rng.Intn(regs))
			} else {
				src1 = isa.Imm(int32(rng.Intn(64)))
			}
			b.I(op, dst, src0, src1)
		}
		b.End()
		p := b.MustBuild()

		run := func() []uint32 {
			m := mem.NewFlat()
			l := &kernel.Launch{Name: "fuzz", Program: p, Memory: m,
				NumWorkgroups: 1, WarpsPerGroup: 1}
			w := newWarp(l, 0, nil)
			for !w.Done() {
				w.Step()
			}
			if w.InstCount() != uint64(nInsts+1) {
				t.Fatalf("seed %d: InstCount %d != %d", seed, w.InstCount(), nInsts+1)
			}
			out := make([]uint32, p.NumVRegs)
			for r := range out {
				out[r] = w.VReg(r, (r*13)%kernel.WavefrontSize)
			}
			return out
		}
		a := run()
		bState := run()
		for i := range a {
			if a[i] != bState[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDivergenceMaskInvariant: for random per-lane bounds, a masked
// loop must leave every lane's accumulator equal to its trip count and
// restore the full EXEC mask.
func TestPropertyDivergenceMaskInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bound := uint32(rng.Intn(7))
		b := isa.NewBuilder("divfuzz")
		b.I(isa.OpVAnd, isa.V(1), isa.V(0), isa.Imm(int32(bound))) // per-lane bound
		b.I(isa.OpVMov, isa.V(2), isa.Imm(0))
		b.I(isa.OpVMov, isa.V(3), isa.Imm(0))
		b.Label("top")
		b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(2), isa.V(1))
		b.I(isa.OpSAndSaveExec, isa.Mask(0))
		b.Br(isa.OpCBranchExecZ, "exit")
		b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(1))
		b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.Imm(1))
		b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
		b.Br(isa.OpSBranch, "top")
		b.Label("exit")
		b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
		b.End()
		p := b.MustBuild()
		m := mem.NewFlat()
		l := &kernel.Launch{Name: "divfuzz", Program: p, Memory: m,
			NumWorkgroups: 1, WarpsPerGroup: 1}
		w := newWarp(l, 0, nil)
		for !w.Done() {
			w.Step()
		}
		if w.Exec() != ^uint64(0) {
			return false
		}
		for lane := 0; lane < kernel.WavefrontSize; lane++ {
			if w.VReg(3, lane) != uint32(lane)&bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
