package emu

import (
	"math"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// Exhaustive single-instruction semantics checks: each case runs one
// instruction on a prepared warp and asserts the architectural result, so
// every ALU opcode's behavior is pinned down independently of the kernels.

// execOne builds a warp with s4=a, s5=b (scalars) and v1=perLaneA, v2=perLaneB
// (vectors, lane-dependent), executes the single instruction, and returns
// the warp.
func execOne(t *testing.T, in isa.Inst, a, b uint32, laneA, laneB func(lane int) uint32) *Warp {
	t.Helper()
	prog := isa.MustProgram("sem", []isa.Inst{in, {Op: isa.OpSEndpgm}}, 0)
	m := mem.NewFlat()
	l := &kernel.Launch{Name: "sem", Program: prog, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 1}
	w := NewWarp(l, 0, nil)
	w.sregs()[4], w.sregs()[5] = a, b
	if prog.NumVRegs > 2 {
		for lane := 0; lane < kernel.WavefrontSize; lane++ {
			if laneA != nil {
				w.vregs()[1*kernel.WavefrontSize+lane] = laneA(lane)
			}
			if laneB != nil {
				w.vregs()[2*kernel.WavefrontSize+lane] = laneB(lane)
			}
		}
	}
	var info StepInfo
	w.StepOne(&info)
	return w
}

func fb(v float32) uint32 { return math.Float32bits(v) }

func TestScalarALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   isa.Op
		a, b uint32
		want uint32
	}{
		{"mov", isa.OpSMov, 7, 0, 7},
		{"add", isa.OpSAdd, 3, 4, 7},
		{"add-wrap", isa.OpSAdd, 0xffffffff, 2, 1},
		{"sub", isa.OpSSub, 10, 3, 7},
		{"sub-borrow", isa.OpSSub, 1, 2, 0xffffffff},
		{"mul", isa.OpSMul, 6, 7, 42},
		{"mul-signed", isa.OpSMul, uint32(0xfffffffe) /* -2 */, 3, uint32(0xfffffffa)},
		{"shl", isa.OpSLShl, 1, 5, 32},
		{"shr", isa.OpSLShr, 0x80000000, 31, 1},
		{"and", isa.OpSAnd, 0xf0f0, 0xff00, 0xf000},
		{"or", isa.OpSOr, 0xf0f0, 0x0f0f, 0xffff},
		{"xor", isa.OpSXor, 0xff00, 0x0ff0, 0xf0f0},
		{"min-signed", isa.OpSMin, uint32(0xffffffff) /* -1 */, 5, uint32(0xffffffff)},
		{"max-signed", isa.OpSMax, uint32(0xffffffff), 5, 5},
		{"div", isa.OpSDiv, 42, 5, 8},
		{"mod", isa.OpSMod, 42, 5, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := isa.Inst{Op: c.op, Dst: isa.S(6), Src0: isa.S(4), Src1: isa.S(5)}
			w := execOne(t, in, c.a, c.b, nil, nil)
			if got := w.SReg(6); got != c.want {
				t.Fatalf("%s(%#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
			}
		})
	}
}

func TestScalarCompareSemantics(t *testing.T) {
	cases := []struct {
		op      isa.Op
		a, b    uint32
		wantSCC bool
	}{
		{isa.OpSCmpLt, 1, 2, true},
		{isa.OpSCmpLt, 2, 2, false},
		{isa.OpSCmpLt, uint32(0xffffffff) /* -1 */, 0, true}, // signed
		{isa.OpSCmpLe, 2, 2, true},
		{isa.OpSCmpEq, 5, 5, true},
		{isa.OpSCmpEq, 5, 6, false},
		{isa.OpSCmpNe, 5, 6, true},
		{isa.OpSCmpGt, 3, 2, true},
		{isa.OpSCmpGe, 2, 2, true},
		{isa.OpSCmpGe, 1, 2, false},
	}
	for _, c := range cases {
		in := isa.Inst{Op: c.op, Src0: isa.S(4), Src1: isa.S(5)}
		w := execOne(t, in, c.a, c.b, nil, nil)
		if w.SCC() != c.wantSCC {
			t.Fatalf("%s(%#x, %#x): SCC = %v, want %v", c.op, c.a, c.b, w.SCC(), c.wantSCC)
		}
	}
}

func TestVectorALUSemantics(t *testing.T) {
	laneID := func(lane int) uint32 { return uint32(lane) }
	threes := func(int) uint32 { return 3 }
	cases := []struct {
		name string
		op   isa.Op
		a, b func(int) uint32
		want func(lane int) uint32
	}{
		{"add", isa.OpVAdd, laneID, threes, func(l int) uint32 { return uint32(l) + 3 }},
		{"sub", isa.OpVSub, laneID, threes, func(l int) uint32 { return uint32(l) - 3 }},
		{"mul", isa.OpVMul, laneID, threes, func(l int) uint32 { return uint32(l) * 3 }},
		{"shl", isa.OpVLShl, threes, laneID, func(l int) uint32 { return 3 << (uint(l) & 31) }},
		{"shr", isa.OpVLShr, func(int) uint32 { return 0x80000000 }, laneID,
			func(l int) uint32 { return 0x80000000 >> (uint(l) & 31) }},
		{"and", isa.OpVAnd, laneID, func(int) uint32 { return 1 }, func(l int) uint32 { return uint32(l) & 1 }},
		{"min", isa.OpVMin, laneID, func(int) uint32 { return 5 }, func(l int) uint32 {
			if l < 5 {
				return uint32(l)
			}
			return 5
		}},
		{"div", isa.OpVDiv, laneID, threes, func(l int) uint32 { return uint32(l) / 3 }},
		{"mod", isa.OpVMod, laneID, threes, func(l int) uint32 { return uint32(l) % 3 }},
		{"cvt-i2f", isa.OpVCvtI2F, laneID, nil, func(l int) uint32 { return fb(float32(l)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := isa.Inst{Op: c.op, Dst: isa.V(3), Src0: isa.V(1), Src1: isa.V(2)}
			w := execOne(t, in, 0, 0, c.a, c.b)
			for _, lane := range []int{0, 1, 7, 31, 63} {
				if got, want := w.VReg(3, lane), c.want(lane); got != want {
					t.Fatalf("%s lane %d = %#x, want %#x", c.op, lane, got, want)
				}
			}
		})
	}
}

func TestVectorFPSemantics(t *testing.T) {
	onePointFive := func(int) uint32 { return fb(1.5) }
	twos := func(int) uint32 { return fb(2.0) }
	cases := []struct {
		name string
		op   isa.Op
		a, b func(int) uint32
		want float32
	}{
		{"fadd", isa.OpVFAdd, onePointFive, twos, 3.5},
		{"fsub", isa.OpVFSub, onePointFive, twos, -0.5},
		{"fmul", isa.OpVFMul, onePointFive, twos, 3.0},
		{"fmin", isa.OpVFMin, onePointFive, twos, 1.5},
		{"fmax", isa.OpVFMax, onePointFive, twos, 2.0},
		{"frcp", isa.OpVFRcp, twos, nil, 0.5},
		{"fsqrt", isa.OpVFSqrt, func(int) uint32 { return fb(9) }, nil, 3},
		{"fabs", isa.OpVFAbs, func(int) uint32 { return fb(-4.25) }, nil, 4.25},
		{"fexp-0", isa.OpVFExp, func(int) uint32 { return fb(0) }, nil, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := isa.Inst{Op: c.op, Dst: isa.V(3), Src0: isa.V(1), Src1: isa.V(2)}
			w := execOne(t, in, 0, 0, c.a, c.b)
			got := math.Float32frombits(w.VReg(3, 5))
			if got != c.want {
				t.Fatalf("%s = %v, want %v", c.op, got, c.want)
			}
		})
	}
}

func TestVFFmaSemantics(t *testing.T) {
	in := isa.Inst{Op: isa.OpVFFma, Dst: isa.V(3), Src0: isa.V(1), Src1: isa.V(2), Src2: isa.V(1)}
	w := execOne(t, in, 0, 0,
		func(int) uint32 { return fb(3) }, func(int) uint32 { return fb(4) })
	if got := math.Float32frombits(w.VReg(3, 0)); got != 15 { // 3*4+3
		t.Fatalf("ffma = %v, want 15", got)
	}
}

func TestVectorCompareWritesVCC(t *testing.T) {
	laneID := func(lane int) uint32 { return uint32(lane) }
	in := isa.Inst{Op: isa.OpVCmpLt, Src0: isa.V(1), Src1: isa.V(2)}
	w := execOne(t, in, 0, 0, laneID, func(int) uint32 { return 8 })
	if w.VCC() != 0xff { // lanes 0..7 are < 8
		t.Fatalf("VCC = %#x, want 0xff", w.VCC())
	}
	// FP compare.
	in = isa.Inst{Op: isa.OpVFCmpGt, Src0: isa.V(1), Src1: isa.V(2)}
	w = execOne(t, in, 0, 0,
		func(l int) uint32 { return fb(float32(l)) }, func(int) uint32 { return fb(61.5) })
	if w.VCC() != 0xc000000000000000 { // lanes 62, 63
		t.Fatalf("fp VCC = %#x", w.VCC())
	}
}

func TestExecMaskOps(t *testing.T) {
	// s_and_saveexec saves EXEC and ANDs VCC into it.
	prog := isa.MustProgram("m", []isa.Inst{
		{Op: isa.OpVCmpLt, Src0: isa.V(0), Src1: isa.Operand{Kind: isa.OperandImm, Imm: 4}},
		{Op: isa.OpSAndSaveExec, Dst: isa.Mask(0)},
		{Op: isa.OpSAndNotExec, Dst: isa.Operand{}, Src0: isa.Mask(0)},
		{Op: isa.OpSSetExec, Src0: isa.Mask(0)},
		{Op: isa.OpSMovExecAll},
		{Op: isa.OpSEndpgm},
	}, 0)
	m := mem.NewFlat()
	l := &kernel.Launch{Name: "m", Program: prog, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 1}
	w := NewWarp(l, 0, nil)
	var info StepInfo
	w.StepOne(&info) // vcmp: lanes 0..3
	if w.VCC() != 0xf {
		t.Fatalf("VCC = %#x", w.VCC())
	}
	w.StepOne(&info) // saveexec
	if w.Exec() != 0xf {
		t.Fatalf("EXEC after and_saveexec = %#x", w.Exec())
	}
	w.StepOne(&info) // andnot: EXEC = saved &^ VCC = all &^ 0xf
	if w.Exec() != ^uint64(0xf) {
		t.Fatalf("EXEC after andn2 = %#x", w.Exec())
	}
	w.StepOne(&info) // setexec: restore saved
	if w.Exec() != ^uint64(0) {
		t.Fatalf("EXEC after set = %#x", w.Exec())
	}
	w.StepOne(&info) // movexecall
	if w.Exec() != ^uint64(0) {
		t.Fatalf("EXEC after mov_all = %#x", w.Exec())
	}
}

func TestMaskedLanesDoNotWrite(t *testing.T) {
	prog := isa.MustProgram("mask", []isa.Inst{
		{Op: isa.OpVCmpLt, Src0: isa.V(0), Src1: isa.Operand{Kind: isa.OperandImm, Imm: 2}},
		{Op: isa.OpSAndSaveExec, Dst: isa.Mask(0)},
		{Op: isa.OpVMov, Dst: isa.V(1), Src0: isa.Operand{Kind: isa.OperandImm, Imm: 99}},
		{Op: isa.OpSEndpgm},
	}, 0)
	m := mem.NewFlat()
	l := &kernel.Launch{Name: "mask", Program: prog, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 1}
	w := NewWarp(l, 0, nil)
	var info StepInfo
	for !w.Done() {
		w.Step(&info)
	}
	if w.VReg(1, 0) != 99 || w.VReg(1, 1) != 99 {
		t.Fatal("active lanes not written")
	}
	if w.VReg(1, 2) != 0 || w.VReg(1, 63) != 0 {
		t.Fatal("masked lanes were written")
	}
}

func TestBranchSemantics(t *testing.T) {
	// Each branch op: taken or not depending on warp state.
	run := func(op isa.Op, setup func(w *Warp)) int {
		prog := isa.MustProgram("br", []isa.Inst{
			{Op: op, Target: 2},
			{Op: isa.OpSNop},
			{Op: isa.OpSEndpgm},
		}, 0)
		m := mem.NewFlat()
		l := &kernel.Launch{Name: "br", Program: prog, Memory: m, NumWorkgroups: 1, WarpsPerGroup: 1}
		w := NewWarp(l, 0, nil)
		if setup != nil {
			setup(w)
		}
		var info StepInfo
		w.StepOne(&info)
		return w.PC()
	}
	if run(isa.OpSBranch, nil) != 2 {
		t.Error("s_branch not taken")
	}
	if run(isa.OpCBranchSCC1, func(w *Warp) { w.SetSCC(true) }) != 2 {
		t.Error("scc1 branch not taken when SCC set")
	}
	if run(isa.OpCBranchSCC1, nil) != 1 {
		t.Error("scc1 branch taken when SCC clear")
	}
	if run(isa.OpCBranchSCC0, nil) != 2 {
		t.Error("scc0 branch not taken when SCC clear")
	}
	if run(isa.OpCBranchVCCZ, nil) != 2 {
		t.Error("vccz branch not taken with zero VCC")
	}
	if run(isa.OpCBranchVCCNZ, func(w *Warp) { w.SetVCC(1) }) != 2 {
		t.Error("vccnz branch not taken with nonzero VCC")
	}
	if run(isa.OpCBranchExecZ, func(w *Warp) { w.SetExec(0) }) != 2 {
		t.Error("execz branch not taken with zero EXEC")
	}
	if run(isa.OpCBranchExecNZ, nil) != 2 {
		t.Error("execnz branch not taken with full EXEC")
	}
}
