package emu

import (
	"fmt"
	"math"

	"photon/internal/sim/isa"
)

// frame is a warp's hot architectural state hoisted out of the store slabs:
// the register windows, EXEC, VCC and the flag byte live here for the
// duration of one Step or one whole barrier segment, and save writes them
// back. exec is the only code that interprets a micro-op, so detailed mode
// (Warp.Step under the timing machine) and fast-forward (Warp.runSegment)
// cannot drift apart.
type frame struct {
	w    *Warp
	st   *WarpStore
	sgpr []uint32
	vgpr []uint32

	active uint64 // EXEC
	vcc    uint64
	flags  uint8

	// addrs is what the last memory micro-op touched, a window of
	// st.addrBuf; Step returns it.
	addrs []uint64
}

func (f *frame) load(w *Warp) {
	st, slot := w.store, w.slot
	f.w, f.st = w, st
	f.sgpr = st.sgpr[slot*st.sregs : (slot+1)*st.sregs]
	f.vgpr = st.vgpr[slot*st.vwords : (slot+1)*st.vwords]
	f.active, f.vcc, f.flags = st.exec[slot], st.vcc[slot], st.flags[slot]
}

func (f *frame) save() {
	st, slot := f.st, f.w.slot
	st.exec[slot], st.vcc[slot], st.flags[slot] = f.active, f.vcc, f.flags
}

// s0 and s1 read a scalar instruction's sources.
func (f *frame) s0(u *isa.MicroOp) uint32 { return f.sread(u.Kind0, u.Src0) }
func (f *frame) s1(u *isa.MicroOp) uint32 { return f.sread(u.Kind1, u.Src1) }

func (f *frame) sread(k isa.OperandKind, v uint32) uint32 {
	switch k {
	case isa.OperandSReg:
		return f.sgpr[v]
	case isa.OperandImm:
		return v
	}
	return badOperand(f.w.Launch.Name, "scalar", k)
}

//go:noinline
func badOperand(name, class string, k isa.OperandKind) uint32 {
	panic(fmt.Sprintf("emu: %s: bad %s operand kind %d", name, class, k))
}

func (f *frame) setSCC(v bool) {
	if v {
		f.flags |= flagSCC
	} else {
		f.flags &^= flagSCC
	}
}

// The value semantics of the ISA, one function per operation that is more
// than a Go operator. Scalar instructions, the vector lane kernels and the
// atomics all evaluate through these, so each is defined exactly once.
// Floating point keeps these exact expression forms: results are pinned
// bit-for-bit by the goldens.

func f32(bits uint32) float32 { return math.Float32frombits(bits) }
func bits32(f float32) uint32 { return math.Float32bits(f) }
func sext(v uint32) int32     { return int32(v) }

func iadd(a, b uint32) uint32 { return a + b }
func imul(a, b uint32) uint32 { return uint32(sext(a) * sext(b)) }
func shl(a, b uint32) uint32  { return a << (b & 31) }
func shr(a, b uint32) uint32  { return a >> (b & 31) }

func imin(a, b uint32) uint32 {
	if sext(b) < sext(a) {
		return b
	}
	return a
}

func imax(a, b uint32) uint32 {
	if sext(b) > sext(a) {
		return b
	}
	return a
}

func ilt(a, b uint32) bool { return sext(a) < sext(b) }
func ile(a, b uint32) bool { return sext(a) <= sext(b) }
func igt(a, b uint32) bool { return sext(a) > sext(b) }
func ige(a, b uint32) bool { return sext(a) >= sext(b) }
func flt(a, b uint32) bool { return f32(a) < f32(b) }
func fgt(a, b uint32) bool { return f32(a) > f32(b) }

func fadd(a, b uint32) uint32    { return bits32(f32(a) + f32(b)) }
func fsub(a, b uint32) uint32    { return bits32(f32(a) - f32(b)) }
func fmul(a, b uint32) uint32    { return bits32(f32(a) * f32(b)) }
func ffma(a, b, c uint32) uint32 { return bits32(f32(a)*f32(b) + f32(c)) }
func fmin(a, b uint32) uint32 {
	return bits32(float32(math.Min(float64(f32(a)), float64(f32(b)))))
}
func fmax(a, b uint32) uint32 {
	return bits32(float32(math.Max(float64(f32(a)), float64(f32(b)))))
}
func frcp(a uint32) uint32  { return bits32(1 / f32(a)) }
func fsqrt(a uint32) uint32 { return bits32(float32(math.Sqrt(float64(f32(a))))) }
func fexp(a uint32) uint32  { return bits32(float32(math.Exp(float64(f32(a))))) }
func fabs(a uint32) uint32  { return bits32(float32(math.Abs(float64(f32(a))))) }
func i2f(a uint32) uint32   { return bits32(float32(sext(a))) }
func f2i(a uint32) uint32   { return uint32(int32(f32(a))) }

// execTiming is exec for a timing-only run of an independent program
// (isa.Program.Independent), which may have no image. It skips a Dead
// micro-op; an s_load computes its address and a vector load or store its
// lane addresses, counting towards s_waitcnt, but none reads or writes
// memory; everything else goes through exec. So the next PC, EXEC, VCC,
// SCC, the counters and the addresses Step returns are a full run's, while
// the registers only values flow into are stale: every loaded value is
// tainted, and no live micro-op reads a tainted register.
func (f *frame) execTiming(u *isa.MicroOp, pc int) int {
	switch {
	case u.Dead:
		return pc + 1
	case u.Step == isa.StepScalarMem:
		f.scalarAddr(u)
		return pc + 1
	case u.Step == isa.StepVectorMem:
		f.laneAddrs(u)
		f.st.outMem[f.w.slot]++
		return pc + 1
	}
	return f.exec(u, pc)
}

// scalarAddr computes the address of s_load u, the one address Step
// returns for it, and returns it.
func (f *frame) scalarAddr(u *isa.MicroOp) uint64 {
	a := &f.st.addrBuf
	a[0] = uint64(f.s0(u)) + uint64(int64(u.Offset))
	f.addrs = a[:1]
	return a[0]
}

// exec executes micro-op u, the instruction at pc, against the frame and
// returns the next PC. Every per-instruction decision — opcode, operand
// kinds, full or partial EXEC, memory path — is taken here or in the handler
// it calls, once; the lane loops underneath are straight-line.
func (f *frame) exec(u *isa.MicroOp, pc int) int {
	sgpr := f.sgpr
	switch u.Op {
	// ---- scalar ALU ----
	case isa.OpSMov:
		sgpr[u.Dst] = f.s0(u)
	case isa.OpSAdd:
		sgpr[u.Dst] = iadd(f.s0(u), f.s1(u))
	case isa.OpSSub:
		sgpr[u.Dst] = f.s0(u) - f.s1(u)
	case isa.OpSMul:
		sgpr[u.Dst] = imul(f.s0(u), f.s1(u))
	case isa.OpSLShl:
		sgpr[u.Dst] = shl(f.s0(u), f.s1(u))
	case isa.OpSLShr:
		sgpr[u.Dst] = shr(f.s0(u), f.s1(u))
	case isa.OpSAnd:
		sgpr[u.Dst] = f.s0(u) & f.s1(u)
	case isa.OpSOr:
		sgpr[u.Dst] = f.s0(u) | f.s1(u)
	case isa.OpSXor:
		sgpr[u.Dst] = f.s0(u) ^ f.s1(u)
	case isa.OpSMin:
		sgpr[u.Dst] = imin(f.s0(u), f.s1(u))
	case isa.OpSMax:
		sgpr[u.Dst] = imax(f.s0(u), f.s1(u))
	case isa.OpSDiv:
		sgpr[u.Dst] = f.s0(u) / f.s1(u)
	case isa.OpSMod:
		sgpr[u.Dst] = f.s0(u) % f.s1(u)
	case isa.OpSCmpLt:
		f.setSCC(ilt(f.s0(u), f.s1(u)))
	case isa.OpSCmpLe:
		f.setSCC(ile(f.s0(u), f.s1(u)))
	case isa.OpSCmpEq:
		f.setSCC(f.s0(u) == f.s1(u))
	case isa.OpSCmpNe:
		f.setSCC(f.s0(u) != f.s1(u))
	case isa.OpSCmpGt:
		f.setSCC(igt(f.s0(u), f.s1(u)))
	case isa.OpSCmpGe:
		f.setSCC(ige(f.s0(u), f.s1(u)))

	// ---- vector ALU ----
	case isa.OpVMov, isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVMad,
		isa.OpVLShl, isa.OpVLShr, isa.OpVAnd, isa.OpVOr, isa.OpVXor,
		isa.OpVMin, isa.OpVMax, isa.OpVDiv, isa.OpVMod,
		isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFFma, isa.OpVFMin,
		isa.OpVFMax, isa.OpVFRcp, isa.OpVFSqrt, isa.OpVFExp, isa.OpVFAbs,
		isa.OpVCvtI2F, isa.OpVCvtF2I:
		f.vectorALU(u)

	// ---- vector compares ----
	case isa.OpVCmpLt, isa.OpVCmpLe, isa.OpVCmpEq, isa.OpVCmpNe,
		isa.OpVCmpGt, isa.OpVCmpGe, isa.OpVFCmpLt, isa.OpVFCmpGt:
		f.vectorCmp(u)

	// ---- exec mask ----
	case isa.OpSAndSaveExec:
		f.st.masks[f.w.slot*maskSlots+int(u.Dst)] = f.active
		f.active &= f.vcc
	case isa.OpSAndNotExec:
		f.active = f.st.masks[f.w.slot*maskSlots+int(u.Src0)] &^ f.vcc
	case isa.OpSSetExec:
		f.active = f.st.masks[f.w.slot*maskSlots+int(u.Src0)]
	case isa.OpSMovExecAll:
		f.active = ^uint64(0)

	// ---- memory ----
	case isa.OpSLoad:
		sgpr[u.Dst] = f.st.mem.Read32(f.scalarAddr(u))
	case isa.OpVLoad:
		f.vectorLoad(u)
	case isa.OpVStore:
		f.vectorStore(u)
	case isa.OpVAtomicAdd, isa.OpVAtomicMax, isa.OpVAtomicMin, isa.OpVAtomicFAdd:
		f.atomicMem(u)
	case isa.OpLDSLoad:
		f.ldsLoad(u)
	case isa.OpLDSStore:
		f.ldsStore(u)

	// ---- control ----
	case isa.OpSBranch:
		return int(u.Target)
	case isa.OpCBranchSCC0:
		if f.flags&flagSCC == 0 {
			return int(u.Target)
		}
	case isa.OpCBranchSCC1:
		if f.flags&flagSCC != 0 {
			return int(u.Target)
		}
	case isa.OpCBranchVCCZ:
		if f.vcc == 0 {
			return int(u.Target)
		}
	case isa.OpCBranchVCCNZ:
		if f.vcc != 0 {
			return int(u.Target)
		}
	case isa.OpCBranchExecZ:
		if f.active == 0 {
			return int(u.Target)
		}
	case isa.OpCBranchExecNZ:
		if f.active != 0 {
			return int(u.Target)
		}
	case isa.OpSBarrier:
		f.flags |= flagBarrier
	case isa.OpSWaitcnt:
		f.st.outMem[f.w.slot] = 0
	case isa.OpSNop:
		// nothing
	case isa.OpSEndpgm:
		f.flags |= flagDone
	default:
		panic(fmt.Sprintf("emu: %s: unimplemented op %s", f.w.Launch.Name, u.Op))
	}
	return pc + 1
}
