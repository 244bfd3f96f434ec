package isa

// WavefrontSize is the number of lanes a vector instruction operates on
// (64, as on AMD GPUs). A vector register is a WavefrontSize-word lane
// window in the emulator's register slab.
const WavefrontSize = 64

// StepKind tells the timing model what executing an instruction did. It is a
// static property of the opcode.
type StepKind uint8

const (
	StepALU StepKind = iota
	StepVectorMem
	StepAtomic
	StepScalarMem
	StepLDS
	StepBarrier
	StepWaitcnt
	StepDone
)

// MicroOp is one instruction pre-decoded for the emulator and the timing
// machine: everything emu.Warp.Step, the segment loop and timing.Machine's
// issue would otherwise re-derive per executed instruction (block membership,
// step kind, functional-unit class, operand kinds and register offsets),
// resolved once at program build. The table is
// immutable and shared by every warp, harness worker and lane that runs the
// program.
type MicroOp struct {
	Op    Op
	Step  StepKind
	Class FUClass
	Head  bool // first instruction of its basic block
	Store bool // writes global memory or LDS
	// Dead marks, in a Program.Independent program, a micro-op whose work a
	// timing-only run skips: an ALU op whose result reaches no memory
	// address, compare, EXEC-mask op or branch, or an LDS op, whose
	// addresses and data the timing model never reads (dataflow.go).
	Dead bool

	// Operand kinds as written in the instruction; the emulator's
	// bad-operand checks read them.
	DstKind, Kind0, Kind1, Kind2 OperandKind

	Block    int32 // index of the containing basic block
	BlockLen int32 // instruction count of that block

	// Run is the length of the private run behind this instruction: how
	// many micro-ops directly after it are StepALU kind and in the same
	// basic block (scalar/vector ALU, compares, EXEC-mask ops, the block's
	// terminating branch). They touch nothing another warp can see and the
	// PC path through them is static, so emu.Warp.Step executes them
	// together with this instruction and the timing machine issues them
	// from this table.
	Run int32

	// Resolved operands. An immediate is its 32-bit value. A vector
	// register of a lane instruction (vector ALU/compare, vector memory,
	// LDS) is its lane-window offset, Idx*WavefrontSize, and such an
	// instruction's Dst is always a window offset. Everything else is the
	// raw register or mask-slot index.
	Dst, Src0, Src1, Src2 uint32

	Offset int32
	Target int32
}

// stepKindOf derives the step kind from the opcode.
func (o Op) stepKindOf() StepKind {
	switch {
	case o == OpVLoad || o == OpVStore:
		return StepVectorMem
	case o.IsAtomic():
		return StepAtomic
	case o == OpSLoad:
		return StepScalarMem
	case o == OpLDSLoad || o == OpLDSStore:
		return StepLDS
	case o == OpSBarrier:
		return StepBarrier
	case o == OpSWaitcnt:
		return StepWaitcnt
	case o == OpSEndpgm:
		return StepDone
	}
	return StepALU
}

// decode builds the micro-op of an instruction of basic block b.
func decode(in *Inst, b BasicBlock) MicroOp {
	class := in.Op.Class()
	lane := class == FUVectorInt || class == FUVectorFP || class == FUVectorSpecial ||
		class == FUVectorMem || class == FULDS
	resolve := func(o Operand) uint32 {
		switch {
		case o.Kind == OperandImm:
			return uint32(o.Imm)
		case o.Kind == OperandVReg && lane:
			return uint32(o.Idx) * WavefrontSize
		}
		return uint32(o.Idx)
	}
	u := MicroOp{
		Op:       in.Op,
		Step:     in.Op.stepKindOf(),
		Class:    class,
		Head:     b.StartPC == in.PC,
		Store:    in.Op == OpVStore || in.Op == OpLDSStore || in.Op.IsAtomic(),
		DstKind:  in.Dst.Kind,
		Kind0:    in.Src0.Kind,
		Kind1:    in.Src1.Kind,
		Kind2:    in.Src2.Kind,
		Block:    int32(b.ID),
		BlockLen: int32(b.Len),
		Dst:      uint32(in.Dst.Idx),
		Src0:     resolve(in.Src0),
		Src1:     resolve(in.Src1),
		Src2:     resolve(in.Src2),
		Offset:   in.Offset,
		Target:   int32(in.Target),
	}
	if lane {
		u.Dst *= WavefrontSize
	}
	return u
}
