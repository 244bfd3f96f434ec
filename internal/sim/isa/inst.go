package isa

import (
	"fmt"
	"math"
)

// OperandKind identifies what an instruction operand refers to.
type OperandKind uint8

const (
	OperandNone OperandKind = iota
	OperandSReg             // 32-bit scalar register, per warp
	OperandVReg             // 32-bit vector register, per lane
	OperandImm              // 32-bit immediate
	OperandMask             // 64-bit special mask register (EXEC save slots)
)

// Operand is a source or destination of an instruction.
type Operand struct {
	Kind OperandKind
	Idx  uint16 // register index for SReg/VReg/Mask
	Imm  int32  // immediate value for OperandImm
}

// S returns a scalar-register operand.
func S(i int) Operand { return Operand{Kind: OperandSReg, Idx: uint16(i)} }

// V returns a vector-register operand.
func V(i int) Operand { return Operand{Kind: OperandVReg, Idx: uint16(i)} }

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OperandImm, Imm: v} }

// ImmF32 returns the bit pattern of a float32 as an immediate operand (the
// ISA's registers are untyped 32-bit values).
func ImmF32(v float32) Operand { return Imm(int32(math.Float32bits(v))) }

// Mask returns a mask save-slot operand (used by exec-mask instructions).
func Mask(i int) Operand { return Operand{Kind: OperandMask, Idx: uint16(i)} }

// String formats the operand in assembly style.
func (o Operand) String() string {
	switch o.Kind {
	case OperandSReg:
		return fmt.Sprintf("s%d", o.Idx)
	case OperandVReg:
		return fmt.Sprintf("v%d", o.Idx)
	case OperandImm:
		return fmt.Sprintf("%d", o.Imm)
	case OperandMask:
		return fmt.Sprintf("m%d", o.Idx)
	default:
		return "_"
	}
}

// Inst is a single decoded instruction. PC is the instruction's index in its
// program. Offset carries the immediate byte offset for memory operations
// and the wait count for s_waitcnt. Target is the branch destination PC.
type Inst struct {
	PC     int
	Op     Op
	Dst    Operand
	Src0   Operand
	Src1   Operand
	Src2   Operand
	Offset int32
	Target int
}

// String formats the instruction in assembly style.
func (in Inst) String() string {
	switch {
	case in.Op.IsBranch():
		return fmt.Sprintf("%-16s pc%d", in.Op, in.Target)
	case in.Op == OpSWaitcnt:
		return fmt.Sprintf("%-16s %d", in.Op, in.Offset)
	case in.Op == OpSEndpgm || in.Op == OpSBarrier || in.Op == OpSNop:
		return in.Op.String()
	case in.Op == OpVStore || in.Op == OpLDSStore:
		return fmt.Sprintf("%-16s [%s+%d], %s", in.Op, in.Src0, in.Offset, in.Src1)
	case in.Op == OpSLoad || in.Op == OpVLoad || in.Op == OpLDSLoad:
		return fmt.Sprintf("%-16s %s, [%s+%d]", in.Op, in.Dst, in.Src0, in.Offset)
	default:
		s := fmt.Sprintf("%-16s %s", in.Op, in.Dst)
		for _, src := range []Operand{in.Src0, in.Src1, in.Src2} {
			if src.Kind != OperandNone {
				s += ", " + src.String()
			}
		}
		return s
	}
}
