package isa

import (
	"strings"
	"testing"
)

func buildLoopProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("loop")
	b.I(OpSMov, S(4), Imm(0))     // pc0: i = 0
	b.Label("top")                //
	b.I(OpVAdd, V(1), V(0), S(4)) // pc1
	b.I(OpSAdd, S(4), S(4), Imm(1))
	b.I(OpSCmpLt, Operand{}, S(4), Imm(10))
	b.Br(OpCBranchSCC1, "top") // pc4
	b.End()                    // pc5
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderResolvesLabels(t *testing.T) {
	p := buildLoopProgram(t)
	br := p.Insts[4]
	if br.Op != OpCBranchSCC1 || br.Target != 1 {
		t.Fatalf("branch = %+v, want target 1", br)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Br(OpSBranch, "nowhere")
	b.End()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Label("x")
	b.Label("x")
	b.End()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with duplicate label")
	}
}

func TestBasicBlockStructure(t *testing.T) {
	p := buildLoopProgram(t)
	// Expected blocks: [0,1) preamble, [1,5) loop body incl branch, [5,6) end.
	if p.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3; disasm:\n%s", p.NumBlocks(), p.Disassemble())
	}
	want := []BlockKey{{0, 1}, {1, 4}, {5, 1}}
	for i, w := range want {
		if got := p.Blocks[i].Key(); got != w {
			t.Errorf("block %d = %v, want %v", i, got, w)
		}
	}
	if b := p.BlockAt(3); b.ID != 1 {
		t.Errorf("BlockAt(3) = block %d, want 1", b.ID)
	}
}

func TestBarrierEndsBasicBlock(t *testing.T) {
	b := NewBuilder("bar")
	b.I(OpVAdd, V(1), V(0), V(0))
	b.Barrier()
	b.I(OpVAdd, V(1), V(1), V(1))
	b.End()
	p := b.MustBuild()
	// Blocks: [0,2) ending at barrier, [2,4) ending at endpgm.
	if p.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2 (barrier must end a block)", p.NumBlocks())
	}
	if p.Blocks[0].Len != 2 || p.Blocks[1].StartPC != 2 {
		t.Fatalf("unexpected blocks %+v", p.Blocks)
	}
}

func TestProgramRequiresTerminator(t *testing.T) {
	if _, err := NewProgram("x", []Inst{{Op: OpSNop}}, 0); err == nil {
		t.Fatal("program without s_endpgm accepted")
	}
}

func TestProgramRejectsBadBranchTarget(t *testing.T) {
	insts := []Inst{
		{Op: OpSBranch, Target: 99},
		{Op: OpSEndpgm},
	}
	if _, err := NewProgram("x", insts, 0); err == nil {
		t.Fatal("branch target out of range accepted")
	}
}

func TestRegisterCounts(t *testing.T) {
	p := buildLoopProgram(t)
	if p.NumSRegs != 5 {
		t.Errorf("NumSRegs = %d, want 5", p.NumSRegs)
	}
	if p.NumVRegs != 2 {
		t.Errorf("NumVRegs = %d, want 2", p.NumVRegs)
	}
}

func TestOpClasses(t *testing.T) {
	cases := []struct {
		op   Op
		want FUClass
	}{
		{OpSAdd, FUScalar},
		{OpSCmpGe, FUScalar},
		{OpVAdd, FUVectorInt},
		{OpVFFma, FUVectorFP},
		{OpVFRcp, FUVectorSpecial},
		{OpVFSqrt, FUVectorSpecial},
		{OpVCmpLt, FUVectorInt},
		{OpSAndSaveExec, FUScalar},
		{OpSLoad, FUScalarMem},
		{OpVLoad, FUVectorMem},
		{OpVStore, FUVectorMem},
		{OpLDSLoad, FULDS},
		{OpSBranch, FUBranch},
		{OpCBranchExecNZ, FUBranch},
		{OpSBarrier, FUSync},
		{OpSEndpgm, FUSync},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%s.Class() = %s, want %s", c.op, got, c.want)
		}
	}
}

func TestEndsBasicBlock(t *testing.T) {
	for _, op := range []Op{OpSBranch, OpCBranchSCC0, OpSBarrier, OpSEndpgm} {
		if !op.EndsBasicBlock() {
			t.Errorf("%s should end a basic block", op)
		}
	}
	for _, op := range []Op{OpSAdd, OpVLoad, OpSWaitcnt, OpVFFma} {
		if op.EndsBasicBlock() {
			t.Errorf("%s should not end a basic block", op)
		}
	}
}

func TestDisassembleMentionsBlocks(t *testing.T) {
	p := buildLoopProgram(t)
	d := p.Disassemble()
	for _, want := range []string{"BB0", "BB1", "BB2", "s_endpgm", "v_add"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestOperandString(t *testing.T) {
	cases := map[string]Operand{
		"s3": S(3), "v7": V(7), "42": Imm(42), "m1": Mask(1),
	}
	for want, o := range cases {
		if o.String() != want {
			t.Errorf("operand %v = %q, want %q", o, o.String(), want)
		}
	}
}

func TestBlockKeyString(t *testing.T) {
	if got := (BlockKey{StartPC: 12, Len: 3}).String(); got != "pc12/3" {
		t.Errorf("BlockKey.String() = %q", got)
	}
}

func TestWithBlockOptionsSplitsAtWaitcnt(t *testing.T) {
	b := NewBuilder("w")
	b.I(OpVAdd, V(1), V(0), V(0))
	b.Load(OpVLoad, V(2), V(1), 0)
	b.Waitcnt(0)
	b.I(OpVFAdd, V(3), V(2), V(2))
	b.End()
	p := b.MustBuild()
	if p.NumBlocks() != 1 {
		t.Fatalf("default blocks = %d, want 1", p.NumBlocks())
	}
	q := p.WithBlockOptions(BlockOptions{SplitAtWaitcnt: true})
	if q.NumBlocks() != 2 {
		t.Fatalf("waitcnt-split blocks = %d, want 2", q.NumBlocks())
	}
	if q.Blocks[0].Len != 3 || q.Blocks[1].StartPC != 3 {
		t.Fatalf("unexpected split blocks %+v", q.Blocks)
	}
	if p.Fingerprint == q.Fingerprint {
		t.Fatal("block options must change the fingerprint")
	}
	// Same options returns the identical program.
	if p.WithBlockOptions(BlockOptions{}) != p {
		t.Fatal("no-op recompile should return the receiver")
	}
	if q.WithBlockOptions(BlockOptions{SplitAtWaitcnt: true}) != q {
		t.Fatal("no-op recompile of split program should return the receiver")
	}
}

func TestAtomicOpsClassification(t *testing.T) {
	for _, op := range []Op{OpVAtomicAdd, OpVAtomicMax, OpVAtomicMin, OpVAtomicFAdd} {
		if !op.IsAtomic() {
			t.Errorf("%s not classified as atomic", op)
		}
		if op.Class() != FUVectorMem {
			t.Errorf("%s class = %s, want vmem", op, op.Class())
		}
		if op.EndsBasicBlock() {
			t.Errorf("%s must not end a basic block", op)
		}
	}
	if OpVLoad.IsAtomic() || OpVStore.IsAtomic() {
		t.Error("plain memory ops misclassified as atomic")
	}
}

func TestCvtOpsClassification(t *testing.T) {
	for _, op := range []Op{OpVCvtI2F, OpVCvtF2I} {
		if op.Class() != FUVectorFP {
			t.Errorf("%s class = %s, want vfp", op, op.Class())
		}
	}
}

func TestInstStringForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpSBranch, Target: 7}, "pc7"},
		{Inst{Op: OpSWaitcnt, Offset: 0}, "s_waitcnt"},
		{Inst{Op: OpVLoad, Dst: V(3), Src0: V(1), Offset: 8}, "[v1+8]"},
		{Inst{Op: OpVStore, Src0: V(1), Src1: V(2), Offset: 4}, "[v1+4], v2"},
		{Inst{Op: OpVFFma, Dst: V(1), Src0: V(2), Src1: S(3), Src2: V(4)}, "v1, v2, s3, v4"},
	}
	for _, c := range cases {
		if got := c.in.String(); !strings.Contains(got, c.want) {
			t.Errorf("%v String() = %q, missing %q", c.in.Op, got, c.want)
		}
	}
}
