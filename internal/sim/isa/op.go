// Package isa defines the warp-level instruction set executed by the
// simulator. It is a deliberately small GCN-flavoured ISA: scalar
// instructions operate on per-warp scalar registers, vector instructions
// operate on all 64 lanes under an execution mask, and control flow is
// warp-uniform (divergence is expressed by masking lanes via VCC/EXEC, as on
// AMD hardware).
//
// Programs are flat instruction slices; the PC of an instruction is its
// index. Basic blocks are identified the way the Photon paper defines them
// (Observation 3): a block is a run of instructions with a single entry and
// a single exit, where exits are branches, s_barrier (to attribute
// inter-warp synchronization latency to its own block), and s_endpgm.
package isa

// Op enumerates the instruction opcodes.
type Op uint8

const (
	// Scalar ALU: per-warp, operate on 32-bit scalar registers.
	OpSMov Op = iota
	OpSAdd
	OpSSub
	OpSMul
	OpSLShl
	OpSLShr
	OpSAnd
	OpSOr
	OpSXor
	OpSMin
	OpSMax
	OpSDiv // unsigned divide (the "compiler" emits it as one op)
	OpSMod // unsigned remainder
	// Scalar compares set the warp's SCC flag.
	OpSCmpLt
	OpSCmpLe
	OpSCmpEq
	OpSCmpNe
	OpSCmpGt
	OpSCmpGe

	// Vector integer ALU: per-lane 32-bit operations under EXEC.
	OpVMov
	OpVAdd
	OpVSub
	OpVMul
	OpVMad // dst = src0*src1 + src2
	OpVLShl
	OpVLShr
	OpVAnd
	OpVOr
	OpVXor
	OpVMin
	OpVMax
	OpVDiv // unsigned divide
	OpVMod // unsigned remainder

	// Vector floating point (registers reinterpreted as float32).
	OpVFAdd
	OpVFSub
	OpVFMul
	OpVFFma // dst = src0*src1 + src2
	OpVFMin
	OpVFMax
	OpVFRcp
	OpVFSqrt
	OpVFExp
	OpVFAbs
	OpVCvtI2F // dst = float32(int32(src0))
	OpVCvtF2I // dst = int32(float32(src0)) (truncating)

	// Vector compares write a 64-bit lane mask to VCC.
	OpVCmpLt
	OpVCmpLe
	OpVCmpEq
	OpVCmpNe
	OpVCmpGt
	OpVCmpGe
	OpVFCmpLt
	OpVFCmpGt

	// Execution-mask manipulation. Mask registers (EXEC, VCC and the
	// save-slots) are 64-bit per-warp specials.
	OpSAndSaveExec // dst(spec) = EXEC; EXEC &= VCC
	OpSAndNotExec  // EXEC = spec(src0) &^ VCC   (the "else" arm)
	OpSSetExec     // EXEC = spec(src0)
	OpSMovExecAll  // EXEC = all lanes enabled

	// Memory.
	OpSLoad  // scalar load dword:   dst(sreg) = mem32[sreg(src0) + imm]
	OpVLoad  // vector load dword:   dst(vreg) = mem32[vreg(src0) + imm], per lane
	OpVStore // vector store dword:  mem32[vreg(src0) + imm] = vreg(src1), per lane
	// Atomics (an extension beyond the paper's MGPUSim, which lacked them):
	// per-lane read-modify-write on global memory, returning the old value.
	// Lanes are resolved in lane order, so intra-warp conflicts are
	// deterministic.
	OpVAtomicAdd  // dst = mem32[src0+imm]; mem32[src0+imm] += src1
	OpVAtomicMax  // dst = mem32[src0+imm]; mem32[src0+imm] = max(old, src1) (signed)
	OpVAtomicMin  // dst = mem32[src0+imm]; mem32[src0+imm] = min(old, src1) (signed)
	OpVAtomicFAdd // dst = mem32[src0+imm]; mem32[src0+imm] += src1 (float32, as on CDNA)
	OpLDSLoad
	OpLDSStore

	// Control flow and synchronization.
	OpSBranch       // unconditional jump to Target
	OpCBranchSCC0   // jump if SCC == 0
	OpCBranchSCC1   // jump if SCC == 1
	OpCBranchVCCZ   // jump if VCC == 0
	OpCBranchVCCNZ  // jump if VCC != 0
	OpCBranchExecZ  // jump if EXEC == 0
	OpCBranchExecNZ // jump if EXEC != 0
	OpSBarrier      // workgroup barrier
	OpSWaitcnt      // wait until outstanding vector-memory ops <= imm
	OpSNop
	OpSEndpgm

	opCount
)

// NumOps is the number of defined opcodes. Decoders and fuzzers that map
// arbitrary bytes into the opcode space take values modulo NumOps.
const NumOps = int(opCount)

var opNames = [...]string{
	OpSMov: "s_mov", OpSAdd: "s_add", OpSSub: "s_sub", OpSMul: "s_mul",
	OpSLShl: "s_lshl", OpSLShr: "s_lshr", OpSAnd: "s_and", OpSOr: "s_or",
	OpSXor: "s_xor", OpSMin: "s_min", OpSMax: "s_max",
	OpSDiv: "s_div", OpSMod: "s_mod",
	OpSCmpLt: "s_cmp_lt", OpSCmpLe: "s_cmp_le", OpSCmpEq: "s_cmp_eq",
	OpSCmpNe: "s_cmp_ne", OpSCmpGt: "s_cmp_gt", OpSCmpGe: "s_cmp_ge",
	OpVMov: "v_mov", OpVAdd: "v_add", OpVSub: "v_sub", OpVMul: "v_mul",
	OpVMad: "v_mad", OpVLShl: "v_lshl", OpVLShr: "v_lshr", OpVAnd: "v_and",
	OpVOr: "v_or", OpVXor: "v_xor", OpVMin: "v_min", OpVMax: "v_max",
	OpVDiv: "v_div", OpVMod: "v_mod",
	OpVFAdd: "v_fadd", OpVFSub: "v_fsub", OpVFMul: "v_fmul", OpVFFma: "v_ffma",
	OpVFMin: "v_fmin", OpVFMax: "v_fmax", OpVFRcp: "v_frcp", OpVFSqrt: "v_fsqrt",
	OpVFExp: "v_fexp", OpVFAbs: "v_fabs",
	OpVCvtI2F: "v_cvt_f32_i32", OpVCvtF2I: "v_cvt_i32_f32",
	OpVCmpLt: "v_cmp_lt", OpVCmpLe: "v_cmp_le", OpVCmpEq: "v_cmp_eq",
	OpVCmpNe: "v_cmp_ne", OpVCmpGt: "v_cmp_gt", OpVCmpGe: "v_cmp_ge",
	OpVFCmpLt: "v_fcmp_lt", OpVFCmpGt: "v_fcmp_gt",
	OpSAndSaveExec: "s_and_saveexec", OpSAndNotExec: "s_andn2_exec",
	OpSSetExec: "s_set_exec", OpSMovExecAll: "s_mov_exec_all",
	OpSLoad: "s_load", OpVLoad: "v_load", OpVStore: "v_store",
	OpVAtomicAdd: "v_atomic_add", OpVAtomicMax: "v_atomic_max",
	OpVAtomicMin: "v_atomic_min", OpVAtomicFAdd: "v_atomic_fadd",
	OpLDSLoad: "lds_load", OpLDSStore: "lds_store",
	OpSBranch: "s_branch", OpCBranchSCC0: "s_cbranch_scc0",
	OpCBranchSCC1: "s_cbranch_scc1", OpCBranchVCCZ: "s_cbranch_vccz",
	OpCBranchVCCNZ: "s_cbranch_vccnz", OpCBranchExecZ: "s_cbranch_execz",
	OpCBranchExecNZ: "s_cbranch_execnz",
	OpSBarrier:      "s_barrier", OpSWaitcnt: "s_waitcnt", OpSNop: "s_nop",
	OpSEndpgm: "s_endpgm",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// FUClass identifies the functional unit an instruction executes on. The
// timing model assigns latencies and issue ports per class, and the Photon
// interval model keys its online latency table by class.
type FUClass uint8

const (
	FUScalar FUClass = iota
	FUVectorInt
	FUVectorFP
	FUVectorSpecial // rcp/sqrt/exp: long-latency transcendental pipe
	FUScalarMem
	FUVectorMem
	FULDS
	FUBranch
	FUSync // barrier, waitcnt, nop, endpgm

	FUClassCount
)

var fuNames = [...]string{
	FUScalar: "scalar", FUVectorInt: "vint", FUVectorFP: "vfp",
	FUVectorSpecial: "vspecial", FUScalarMem: "smem", FUVectorMem: "vmem",
	FULDS: "lds", FUBranch: "branch", FUSync: "sync",
}

// String returns the functional-unit name.
func (c FUClass) String() string {
	if int(c) < len(fuNames) {
		return fuNames[c]
	}
	return "fu?"
}

// opClass caches classOf for every opcode so the per-issue lookup in the
// timing model is a single array index instead of a cascade of compares.
var opClass = func() [opCount]FUClass {
	var t [opCount]FUClass
	for o := Op(0); o < opCount; o++ {
		t[o] = o.classOf()
	}
	return t
}()

// Class returns the functional unit class for the opcode.
func (o Op) Class() FUClass { return opClass[o] }

// classOf derives the class from the opcode ranges; it runs once per opcode
// at init to build the lookup table.
func (o Op) classOf() FUClass {
	switch {
	case o <= OpSCmpGe:
		return FUScalar
	case o <= OpVMod:
		return FUVectorInt
	case o <= OpVCvtF2I:
		if o == OpVFRcp || o == OpVFSqrt || o == OpVFExp {
			return FUVectorSpecial
		}
		return FUVectorFP
	case o <= OpVFCmpGt:
		return FUVectorInt // compares use the vector integer pipe
	case o <= OpSMovExecAll:
		return FUScalar
	case o == OpSLoad:
		return FUScalarMem
	case o == OpVLoad || o == OpVStore || o.IsAtomic():
		return FUVectorMem
	case o == OpLDSLoad || o == OpLDSStore:
		return FULDS
	case o <= OpCBranchExecNZ:
		return FUBranch
	default:
		return FUSync
	}
}

// IsBranch reports whether the opcode is a (conditional or unconditional)
// branch.
func (o Op) IsBranch() bool { return o >= OpSBranch && o <= OpCBranchExecNZ }

// IsAtomic reports whether the opcode is an atomic read-modify-write.
func (o Op) IsAtomic() bool {
	return o == OpVAtomicAdd || o == OpVAtomicMax || o == OpVAtomicMin || o == OpVAtomicFAdd
}

// EndsBasicBlock reports whether the instruction terminates a basic block
// under the paper's definition: branches, s_barrier and s_endpgm end blocks.
func (o Op) EndsBasicBlock() bool {
	return o.IsBranch() || o == OpSBarrier || o == OpSEndpgm
}
