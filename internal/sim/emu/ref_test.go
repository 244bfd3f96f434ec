package emu

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// The reference interpreter: the per-lane emulator this package shipped
// before the lane kernels, kept verbatim (identifiers prefixed ref) as an
// independent oracle. It decides everything — opcode, operand kind, EXEC
// bit, memory path — per lane, shares no code with exec beyond the bit-cast
// helpers and the panic formatter, and is what the differential tests and
// FuzzLaneKernels below hold Warp.Step and Warp.runSegment to.

// sread reads a scalar source from the hoisted SGPR window.
func (w *Warp) refSread(sgpr []uint32, o isa.Operand) uint32 {
	switch o.Kind {
	case isa.OperandSReg:
		return sgpr[o.Idx]
	case isa.OperandImm:
		return uint32(o.Imm)
	}
	return badOperand(w.Launch.Name, "scalar", o.Kind)
}

// vsrc resolves a vector-instruction source once per instruction rather than
// once per lane: a VReg source yields its wavefront-sized lane window,
// scalar registers and immediates a broadcast value. Sources an op does not
// declare (OperandNone) are never read and resolve to a zero broadcast.
func refVsrc(sgpr, vgpr []uint32, o isa.Operand) (lanes []uint32, bcast uint32) {
	switch o.Kind {
	case isa.OperandVReg:
		base := int(o.Idx) * kernel.WavefrontSize
		return vgpr[base : base+kernel.WavefrontSize], 0
	case isa.OperandSReg:
		return nil, sgpr[o.Idx]
	case isa.OperandImm:
		return nil, uint32(o.Imm)
	}
	return nil, 0
}

// lv reads one lane of a source resolved by vsrc.
func refLv(lanes []uint32, bcast uint32, lane int) uint32 {
	if lanes != nil {
		return lanes[lane]
	}
	return bcast
}

// vdst returns the destination register's lane window.
func refVdst(vgpr []uint32, o isa.Operand) []uint32 {
	base := int(o.Idx) * kernel.WavefrontSize
	return vgpr[base : base+kernel.WavefrontSize]
}

// Step executes the instruction at PC and advances the warp. It must not be
// called on a Done warp; callers resume barriers by ClearBarrier. The SGPR
// and VGPR windows are hoisted once per instruction so the hot loop indexes
// flat slices instead of re-slicing the slabs per operand. It returns the
// addresses a global memory instruction touched — the active lanes' for
// vector memory and atomics, the one of s_load — never nil for those, and
// nil for everything else.
func (w *Warp) refStep() (addrs []uint64) {
	st := w.store
	slot := w.slot
	if st.flags[slot]&flagDone != 0 {
		panic(fmt.Sprintf("emu: %s warp %d stepped after s_endpgm", w.Launch.Name, w.GlobalID))
	}
	p := w.Launch.Program
	pc := int(st.pc[slot])
	in := &p.Insts[pc]
	if b := p.BlockAt(pc); b.StartPC == pc {
		st.bb[slot*st.blocks+b.ID]++
	}
	st.instCount[slot]++
	nextPC := pc + 1
	sgpr := st.sgpr[slot*st.sregs : (slot+1)*st.sregs]

	switch in.Op {
	// ---- scalar ALU ----
	case isa.OpSMov:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0)
	case isa.OpSAdd:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) + w.refSread(sgpr, in.Src1)
	case isa.OpSSub:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) - w.refSread(sgpr, in.Src1)
	case isa.OpSMul:
		sgpr[in.Dst.Idx] = uint32(sext(w.refSread(sgpr, in.Src0)) * sext(w.refSread(sgpr, in.Src1)))
	case isa.OpSLShl:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) << (w.refSread(sgpr, in.Src1) & 31)
	case isa.OpSLShr:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) >> (w.refSread(sgpr, in.Src1) & 31)
	case isa.OpSAnd:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) & w.refSread(sgpr, in.Src1)
	case isa.OpSOr:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) | w.refSread(sgpr, in.Src1)
	case isa.OpSXor:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) ^ w.refSread(sgpr, in.Src1)
	case isa.OpSMin:
		a, b := sext(w.refSread(sgpr, in.Src0)), sext(w.refSread(sgpr, in.Src1))
		if b < a {
			a = b
		}
		sgpr[in.Dst.Idx] = uint32(a)
	case isa.OpSMax:
		a, b := sext(w.refSread(sgpr, in.Src0)), sext(w.refSread(sgpr, in.Src1))
		if b > a {
			a = b
		}
		sgpr[in.Dst.Idx] = uint32(a)
	case isa.OpSDiv:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) / w.refSread(sgpr, in.Src1)
	case isa.OpSMod:
		sgpr[in.Dst.Idx] = w.refSread(sgpr, in.Src0) % w.refSread(sgpr, in.Src1)
	case isa.OpSCmpLt:
		st.setSCC(slot, sext(w.refSread(sgpr, in.Src0)) < sext(w.refSread(sgpr, in.Src1)))
	case isa.OpSCmpLe:
		st.setSCC(slot, sext(w.refSread(sgpr, in.Src0)) <= sext(w.refSread(sgpr, in.Src1)))
	case isa.OpSCmpEq:
		st.setSCC(slot, w.refSread(sgpr, in.Src0) == w.refSread(sgpr, in.Src1))
	case isa.OpSCmpNe:
		st.setSCC(slot, w.refSread(sgpr, in.Src0) != w.refSread(sgpr, in.Src1))
	case isa.OpSCmpGt:
		st.setSCC(slot, sext(w.refSread(sgpr, in.Src0)) > sext(w.refSread(sgpr, in.Src1)))
	case isa.OpSCmpGe:
		st.setSCC(slot, sext(w.refSread(sgpr, in.Src0)) >= sext(w.refSread(sgpr, in.Src1)))

	// ---- vector ALU ----
	case isa.OpVMov, isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVMad,
		isa.OpVLShl, isa.OpVLShr, isa.OpVAnd, isa.OpVOr, isa.OpVXor,
		isa.OpVMin, isa.OpVMax, isa.OpVDiv, isa.OpVMod,
		isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFFma, isa.OpVFMin,
		isa.OpVFMax, isa.OpVFRcp, isa.OpVFSqrt, isa.OpVFExp, isa.OpVFAbs,
		isa.OpVCvtI2F, isa.OpVCvtF2I:
		w.refVectorALU(in, sgpr)

	// ---- vector compares ----
	case isa.OpVCmpLt, isa.OpVCmpLe, isa.OpVCmpEq, isa.OpVCmpNe,
		isa.OpVCmpGt, isa.OpVCmpGe, isa.OpVFCmpLt, isa.OpVFCmpGt:
		w.refVectorCmp(in, sgpr)

	// ---- exec mask ----
	case isa.OpSAndSaveExec:
		st.masks[slot*maskSlots+int(in.Dst.Idx)] = st.exec[slot]
		st.exec[slot] &= st.vcc[slot]
	case isa.OpSAndNotExec:
		st.exec[slot] = st.masks[slot*maskSlots+int(in.Src0.Idx)] &^ st.vcc[slot]
	case isa.OpSSetExec:
		st.exec[slot] = st.masks[slot*maskSlots+int(in.Src0.Idx)]
	case isa.OpSMovExecAll:
		st.exec[slot] = ^uint64(0)

	// ---- memory ----
	case isa.OpSLoad:
		addr := uint64(w.refSread(sgpr, in.Src0)) + uint64(int64(in.Offset))
		sgpr[in.Dst.Idx] = st.mem.Read32(addr)
		addrs = []uint64{addr}
	case isa.OpVLoad:
		addrs = w.refVectorMem(in, sgpr, false)
	case isa.OpVStore:
		addrs = w.refVectorMem(in, sgpr, true)
	case isa.OpVAtomicAdd, isa.OpVAtomicMax, isa.OpVAtomicMin, isa.OpVAtomicFAdd:
		addrs = w.refAtomicMem(in, sgpr)
	case isa.OpLDSLoad:
		w.refLDSAccess(in, sgpr, false)
	case isa.OpLDSStore:
		w.refLDSAccess(in, sgpr, true)

	// ---- control ----
	case isa.OpSBranch:
		nextPC = in.Target
	case isa.OpCBranchSCC0:
		if !st.scc(slot) {
			nextPC = in.Target
		}
	case isa.OpCBranchSCC1:
		if st.scc(slot) {
			nextPC = in.Target
		}
	case isa.OpCBranchVCCZ:
		if st.vcc[slot] == 0 {
			nextPC = in.Target
		}
	case isa.OpCBranchVCCNZ:
		if st.vcc[slot] != 0 {
			nextPC = in.Target
		}
	case isa.OpCBranchExecZ:
		if st.exec[slot] == 0 {
			nextPC = in.Target
		}
	case isa.OpCBranchExecNZ:
		if st.exec[slot] != 0 {
			nextPC = in.Target
		}
	case isa.OpSBarrier:
		st.flags[slot] |= flagBarrier
	case isa.OpSWaitcnt:
		st.outMem[slot] = 0
	case isa.OpSNop:
		// nothing
	case isa.OpSEndpgm:
		st.flags[slot] |= flagDone
	default:
		panic(fmt.Sprintf("emu: %s: unimplemented op %s", w.Launch.Name, in.Op))
	}

	st.pc[slot] = int32(nextPC)
	return addrs
}

func (w *Warp) refVectorALU(in *isa.Inst, sgpr []uint32) {
	vgpr := w.vregs()
	exec := w.store.exec[w.slot]
	l0, b0 := refVsrc(sgpr, vgpr, in.Src0)
	l1, b1 := refVsrc(sgpr, vgpr, in.Src1)
	l2, b2 := refVsrc(sgpr, vgpr, in.Src2)
	dst := refVdst(vgpr, in.Dst)
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		a, b := refLv(l0, b0, lane), refLv(l1, b1, lane)
		var r uint32
		switch in.Op {
		case isa.OpVMov:
			r = a
		case isa.OpVAdd:
			r = a + b
		case isa.OpVSub:
			r = a - b
		case isa.OpVMul:
			r = uint32(sext(a) * sext(b))
		case isa.OpVMad:
			r = uint32(sext(a)*sext(b)) + refLv(l2, b2, lane)
		case isa.OpVLShl:
			r = a << (b & 31)
		case isa.OpVLShr:
			r = a >> (b & 31)
		case isa.OpVAnd:
			r = a & b
		case isa.OpVOr:
			r = a | b
		case isa.OpVXor:
			r = a ^ b
		case isa.OpVMin:
			x, y := sext(a), sext(b)
			if y < x {
				x = y
			}
			r = uint32(x)
		case isa.OpVMax:
			x, y := sext(a), sext(b)
			if y > x {
				x = y
			}
			r = uint32(x)
		case isa.OpVDiv:
			r = a / b
		case isa.OpVMod:
			r = a % b
		case isa.OpVFAdd:
			r = bits32(f32(a) + f32(b))
		case isa.OpVFSub:
			r = bits32(f32(a) - f32(b))
		case isa.OpVFMul:
			r = bits32(f32(a) * f32(b))
		case isa.OpVFFma:
			r = bits32(f32(a)*f32(b) + f32(refLv(l2, b2, lane)))
		case isa.OpVFMin:
			r = bits32(float32(math.Min(float64(f32(a)), float64(f32(b)))))
		case isa.OpVFMax:
			r = bits32(float32(math.Max(float64(f32(a)), float64(f32(b)))))
		case isa.OpVFRcp:
			r = bits32(1 / f32(a))
		case isa.OpVFSqrt:
			r = bits32(float32(math.Sqrt(float64(f32(a)))))
		case isa.OpVFExp:
			r = bits32(float32(math.Exp(float64(f32(a)))))
		case isa.OpVFAbs:
			r = bits32(float32(math.Abs(float64(f32(a)))))
		case isa.OpVCvtI2F:
			r = bits32(float32(sext(a)))
		case isa.OpVCvtF2I:
			r = uint32(int32(f32(a)))
		}
		dst[lane] = r
	}
}

func (w *Warp) refVectorCmp(in *isa.Inst, sgpr []uint32) {
	vgpr := w.vregs()
	exec := w.store.exec[w.slot]
	l0, b0 := refVsrc(sgpr, vgpr, in.Src0)
	l1, b1 := refVsrc(sgpr, vgpr, in.Src1)
	var vcc uint64
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		a, b := refLv(l0, b0, lane), refLv(l1, b1, lane)
		var t bool
		switch in.Op {
		case isa.OpVCmpLt:
			t = sext(a) < sext(b)
		case isa.OpVCmpLe:
			t = sext(a) <= sext(b)
		case isa.OpVCmpEq:
			t = a == b
		case isa.OpVCmpNe:
			t = a != b
		case isa.OpVCmpGt:
			t = sext(a) > sext(b)
		case isa.OpVCmpGe:
			t = sext(a) >= sext(b)
		case isa.OpVFCmpLt:
			t = f32(a) < f32(b)
		case isa.OpVFCmpGt:
			t = f32(a) > f32(b)
		}
		if t {
			vcc |= 1 << uint(lane)
		}
	}
	w.store.vcc[w.slot] = vcc
}

func (w *Warp) refVectorMem(in *isa.Inst, sgpr []uint32, store bool) []uint64 {
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	la, ba := refVsrc(sgpr, vgpr, in.Src0)
	lval, bval := refVsrc(sgpr, vgpr, in.Src1)
	var dst []uint32
	if !store {
		dst = refVdst(vgpr, in.Dst)
	}
	addrs := make([]uint64, 0, kernel.WavefrontSize)
	memArena := st.mem
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		addr := uint64(refLv(la, ba, lane)) + uint64(int64(in.Offset))
		addrs = append(addrs, addr)
		if store {
			memArena.Write32(addr, refLv(lval, bval, lane))
		} else {
			dst[lane] = memArena.Read32(addr)
		}
	}
	st.outMem[w.slot]++
	return addrs
}

// atomicMem executes a per-lane read-modify-write. Lanes resolve in lane
// order, making intra-warp conflicts on one address deterministic.
func (w *Warp) refAtomicMem(in *isa.Inst, sgpr []uint32) []uint64 {
	st := w.store
	vgpr := w.vregs()
	exec := st.exec[w.slot]
	la, ba := refVsrc(sgpr, vgpr, in.Src0)
	lval, bval := refVsrc(sgpr, vgpr, in.Src1)
	var dst []uint32
	if in.Dst.Kind == isa.OperandVReg {
		dst = refVdst(vgpr, in.Dst)
	}
	addrs := make([]uint64, 0, kernel.WavefrontSize)
	memArena := st.mem
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		addr := uint64(refLv(la, ba, lane)) + uint64(int64(in.Offset))
		addrs = append(addrs, addr)
		old := memArena.Read32(addr)
		val := refLv(lval, bval, lane)
		next := refAtomicRMW(in.Op, old, val)
		memArena.Write32(addr, next)
		if dst != nil {
			dst[lane] = old
		}
	}
	st.outMem[w.slot]++
	return addrs
}

// atomicRMW computes the next memory value of one atomic lane.
func refAtomicRMW(op isa.Op, old, val uint32) uint32 {
	switch op {
	case isa.OpVAtomicAdd:
		return old + val
	case isa.OpVAtomicMax:
		if sext(val) > sext(old) {
			return val
		}
		return old
	case isa.OpVAtomicMin:
		if sext(val) < sext(old) {
			return val
		}
		return old
	case isa.OpVAtomicFAdd:
		return bits32(f32(old) + f32(val))
	}
	panic(fmt.Sprintf("emu: atomicRMW on non-atomic op %s", op))
}

func (w *Warp) refLDSAccess(in *isa.Inst, sgpr []uint32, store bool) {
	vgpr := w.vregs()
	exec := w.store.exec[w.slot]
	la, ba := refVsrc(sgpr, vgpr, in.Src0)
	lval, bval := refVsrc(sgpr, vgpr, in.Src1)
	var dst []uint32
	if !store {
		dst = refVdst(vgpr, in.Dst)
	}
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		if exec&(1<<uint(lane)) == 0 {
			continue
		}
		addr := int(refLv(la, ba, lane)) + int(in.Offset)
		if addr < 0 || addr+4 > len(w.lds) {
			panic(fmt.Sprintf("emu: %s warp %d: LDS access %d out of %d bytes",
				w.Launch.Name, w.GlobalID, addr, len(w.lds)))
		}
		if store {
			v := refLv(lval, bval, lane)
			w.lds[addr] = byte(v)
			w.lds[addr+1] = byte(v >> 8)
			w.lds[addr+2] = byte(v >> 16)
			w.lds[addr+3] = byte(v >> 24)
		} else {
			v := uint32(w.lds[addr]) | uint32(w.lds[addr+1])<<8 |
				uint32(w.lds[addr+2])<<16 | uint32(w.lds[addr+3])<<24
			dst[lane] = v
		}
	}
}

// ---- differential harness ----

const (
	refVRegs    = 8
	refSRegs    = 16
	refLDSBytes = 1024
	refBufWords = 256
)

// refBufBase puts the test buffer across a 64 KiB page boundary, so lane
// addresses into it exercise the gather/scatter page-run logic.
const refBufBase = 3<<16 - refBufWords*2

// rig is one warp on its own memory and LDS. The differential tests load
// identical images into four rigs, drive one through the oracle and the
// others through StepOne (Step without the private run, so the oracle is
// compared after every instruction), runSegment and Step, and demand
// identical architectural state. Memories are recycled from case to case (a
// fresh one costs four 64 KiB pages); load rewrites every compared region.
type rig struct {
	w   *Warp
	m   *mem.Flat
	lds []byte
}

type rigs [4]*rig

func newRigs() *rigs {
	var rs rigs
	for i := range rs {
		rs[i] = &rig{m: mem.NewFlat(), lds: make([]byte, refLDSBytes)}
	}
	return &rs
}

// bind points every rig at a fresh warp of the program.
func (rs *rigs) bind(prog *isa.Program) {
	for _, g := range rs {
		l := &kernel.Launch{Name: "ref", Program: prog, Memory: g.m, NumWorkgroups: 1, WarpsPerGroup: 1}
		g.w = newWarp(l, 0, g.lds)
	}
}

// refProgram compiles insts (plus a terminating s_endpgm) with a fixed
// register-file shape, so every rig has v0..v7 and s0..s15 whatever the
// instructions mention.
func refProgram(t testing.TB, insts []isa.Inst) *isa.Program {
	t.Helper()
	insts = append(append([]isa.Inst(nil), insts...), isa.Inst{Op: isa.OpSEndpgm})
	p, err := isa.NewProgram("ref", insts, refLDSBytes)
	if err != nil {
		t.Fatal(err)
	}
	p.NumVRegs, p.NumSRegs = refVRegs, refSRegs
	return p
}

// Register roles of the generated instructions. Address registers hold
// in-range addresses so memory ops stay inside the compared regions; the
// table test additionally aliases destinations onto them.
const (
	refVAddr    = 6 // v6: per-lane global addresses into the buffer
	refVLDSAddr = 7 // v7: per-lane LDS addresses
	refSAddr    = 14
	refSLDSAddr = 15
)

var refSpecials = []uint32{
	0, 1, 2, 31, 32, 63, 0x7fffffff, 0x80000000, 0xffffffff, 0xfffffffe,
	math.Float32bits(1), math.Float32bits(-1), math.Float32bits(0.5),
	math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1))),
	0x7fc00000 /* NaN */, 0x80000000 /* -0 */, 0x00000001, /* denormal */
	math.Float32bits(3.3e38), math.Float32bits(-2.75),
}

func refValue(r *rand.Rand) uint32 {
	switch r.Intn(4) {
	case 0:
		return refSpecials[r.Intn(len(refSpecials))]
	case 1:
		return uint32(r.Intn(64))
	case 2:
		return math.Float32bits(float32(r.NormFloat64() * 100))
	}
	return r.Uint32()
}

// image is one starting state: registers, masks, condition codes, buffer
// and LDS contents.
type image struct {
	sgpr  [refSRegs]uint32
	vgpr  [refVRegs * kernel.WavefrontSize]uint32
	masks [maskSlots]uint64
	vcc   uint64
	scc   bool
	buf   [refBufWords]uint32
	lds   [refLDSBytes]byte
}

// genImage draws a starting state. A non-zero ldsSlack lets LDS addresses
// reach the edges of the allocation and past them, so a share of accesses
// fault; unaligned lets global addresses straddle words and pages.
func genImage(r *rand.Rand, ldsSlack int, unaligned bool) *image {
	img := &image{vcc: r.Uint64(), scc: r.Intn(2) == 0}
	for i := range img.sgpr {
		img.sgpr[i] = refValue(r)
	}
	for i := range img.vgpr {
		img.vgpr[i] = refValue(r)
	}
	for i := range img.masks {
		img.masks[i] = r.Uint64()
	}
	for i := range img.buf {
		img.buf[i] = r.Uint32()
	}
	r.Read(img.lds[:])
	addr := func() uint32 {
		a := uint32(refBufBase) + uint32(r.Intn(refBufWords*4-64)) + 32
		if !unaligned {
			a &^= 3
		}
		return a
	}
	if r.Intn(2) == 0 {
		ldsSlack = 0 // half the images keep every LDS access in bounds
	}
	ldsAddr := func() uint32 {
		if ldsSlack > 0 && r.Intn(8) == 0 { // probe both edges of the allocation
			return uint32(int32([]int{-1, 0, refLDSBytes - 4, refLDSBytes - 3, refLDSBytes}[r.Intn(5)]))
		}
		return uint32(int32(r.Intn(refLDSBytes-64+2*ldsSlack) + 32 - ldsSlack))
	}
	unit := r.Intn(2) == 0 // unit stride, the common kernel shape; half of these cross the page boundary
	base := uint32(refBufBase) + uint32(r.Intn(refBufWords-kernel.WavefrontSize))*4
	for lane := 0; lane < kernel.WavefrontSize; lane++ {
		img.vgpr[refVAddr*kernel.WavefrontSize+lane] = addr()
		if unit {
			img.vgpr[refVAddr*kernel.WavefrontSize+lane] = base + uint32(lane)*4
		}
		img.vgpr[refVLDSAddr*kernel.WavefrontSize+lane] = ldsAddr()
	}
	img.sgpr[refSAddr] = addr()
	img.sgpr[refSLDSAddr] = ldsAddr()
	return img
}

// load installs the image in every rig, under the given EXEC.
func (rs *rigs) load(img *image, exec uint64) {
	for _, g := range rs {
		w := g.w
		copy(w.sregs(), img.sgpr[:])
		copy(w.vregs(), img.vgpr[:])
		st, slot := w.store, w.slot
		copy(st.masks[slot*maskSlots:(slot+1)*maskSlots], img.masks[:])
		w.SetExec(exec)
		w.SetVCC(img.vcc)
		w.SetSCC(img.scc)
		copy(g.lds, img.lds[:])
		for _, reg := range refRegions {
			for addr := reg[0]; addr >= reg[0] && addr < reg[1]; addr += 4 {
				g.m.Write32(addr, 0)
			}
		}
		g.m.WriteWords(refBufBase, img.buf[:])
	}
}

// outcome is what one attempt to execute left behind besides warp state.
type outcome struct {
	panicked bool
	msg      string   // message of a string panic (ours); "" for runtime errors
	addrs    []uint64 // a copy of the returned addresses; nil stays nil
}

func attempt(step func() []uint64) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o.panicked = true
			if s, ok := p.(string); ok {
				o.msg = s
			}
		}
	}()
	if a := step(); a != nil {
		o.addrs = append(make([]uint64, 0, len(a)), a...)
	}
	return o
}

// kindAt is the micro-op table's step kind of the instruction at the warp's
// PC, the kind the timing machine switches on.
func kindAt(w *Warp) isa.StepKind { return w.Launch.Program.MicroOps()[w.PC()].Step }

// diffOutcome compares what a step of an instruction of the given kind
// returned with what the oracle returned: the same addresses, and nil
// exactly for the kinds that touch no global memory.
func diffOutcome(kind isa.StepKind, ref, got outcome) string {
	if ref.panicked != got.panicked || ref.msg != got.msg {
		return fmt.Sprintf("panic: oracle (%v, %q) vs (%v, %q)", ref.panicked, ref.msg, got.panicked, got.msg)
	}
	if ref.panicked {
		return ""
	}
	memory := kind == isa.StepVectorMem || kind == isa.StepAtomic || kind == isa.StepScalarMem
	if (got.addrs != nil) != memory {
		return fmt.Sprintf("step kind %d returned addresses %#x (nil: %v)", kind, got.addrs, got.addrs == nil)
	}
	if (ref.addrs == nil) != (got.addrs == nil) || !slices.Equal(ref.addrs, got.addrs) {
		return fmt.Sprintf("addresses: oracle %#x vs %#x", ref.addrs, got.addrs)
	}
	return ""
}

// stepAgainst advances the warp by one Step and compares the addresses it
// returns with trace, the oracle's per dynamic instruction of that warp.
func stepAgainst(w *Warp, trace [][]uint64) string {
	k := w.InstCount()
	if k >= uint64(len(trace)) {
		return fmt.Sprintf("Step at dynamic instruction %d, past the oracle's %d", k, len(trace))
	}
	kind := kindAt(w)
	if d := diffOutcome(kind, outcome{addrs: trace[k]}, attempt(w.Step)); d != "" {
		return fmt.Sprintf("Step at dynamic instruction %d: %s", k, d)
	}
	return ""
}

// refRegions are the address ranges the tests compare: the buffer with a
// margin, the null page an undeclared address source reaches, and the top
// of the address space a negative offset from it wraps to.
var refRegions = [][2]uint64{
	{refBufBase - 64, refBufBase + refBufWords*4 + 64},
	{0, 64},
	{^uint64(0) - 63, ^uint64(0) - 3},
}

// nanPayloadFree reports whether the opcode's result may legitimately differ
// from the oracle's in NaN payload. With two NaN inputs the hardware returns
// whichever the compiler happened to place first in the instruction, which
// the same Go expression does not pin down from one function to the next.
func nanPayloadFree(op isa.Op) bool {
	switch op {
	case isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFFma, isa.OpVFMin, isa.OpVFMax, isa.OpVAtomicFAdd:
		return true
	}
	return false
}

func isNaN32(v uint32) bool { return v&0x7f800000 == 0x7f800000 && v&0x007fffff != 0 }

// diffRigs compares the full architectural state, memory image and LDS of
// two rigs. Under nanOK a word that is a NaN on both sides counts as equal
// and the reference is resynchronized to got's payload, so the difference
// cannot cascade into later instructions.
func diffRigs(ref, got *rig, nanOK bool) string {
	if nanOK {
		rv, gv := ref.w.vregs(), got.w.vregs()
		for i := range rv {
			if rv[i] != gv[i] && isNaN32(rv[i]) && isNaN32(gv[i]) {
				rv[i] = gv[i]
			}
		}
	}
	a, b := ref.w.Snapshot(), got.w.Snapshot()
	if d := a.Diff(&b); d != "" {
		return d
	}
	for _, reg := range refRegions {
		if ref.m == nil {
			break // checkLaunch compares the launch's own memory image at the end
		}
		for addr := reg[0]; addr >= reg[0] && addr < reg[1]; addr += 4 {
			x, y := ref.m.Read32(addr), got.m.Read32(addr)
			if x != y && nanOK && isNaN32(x) && isNaN32(y) {
				ref.m.Write32(addr, y)
				continue
			}
			if x != y {
				return fmt.Sprintf("mem[%#x]: oracle %#x vs %#x", addr, x, y)
			}
		}
	}
	for i := range ref.lds {
		if ref.lds[i] != got.lds[i] {
			return fmt.Sprintf("lds[%d]: oracle %#x vs %#x", i, ref.lds[i], got.lds[i])
		}
	}
	return ""
}

// laneOps are the opcodes the lane kernels implement.
func laneOps() []isa.Op {
	var ops []isa.Op
	for o := isa.OpVMov; o <= isa.OpVFCmpGt; o++ {
		ops = append(ops, o)
	}
	return append(ops, isa.OpVLoad, isa.OpVStore, isa.OpVAtomicAdd, isa.OpVAtomicMax,
		isa.OpVAtomicMin, isa.OpVAtomicFAdd, isa.OpLDSLoad, isa.OpLDSStore)
}

func isLDS(op isa.Op) bool { return op == isa.OpLDSLoad || op == isa.OpLDSStore }

// refOperand builds a source of the given kind in the role the opcode gives
// that position: position 0 of a memory op is its address.
func refOperand(op isa.Op, pos int, kind isa.OperandKind, pick int) isa.Operand {
	addrPos := pos == 0 && (op.Class() == isa.FUVectorMem || isLDS(op))
	switch kind {
	case isa.OperandVReg:
		switch {
		case addrPos && isLDS(op):
			return isa.V(refVLDSAddr)
		case addrPos:
			return isa.V(refVAddr)
		}
		return isa.V(pick % 6)
	case isa.OperandSReg:
		switch {
		case addrPos && isLDS(op):
			return isa.S(refSLDSAddr)
		case addrPos:
			return isa.S(refSAddr)
		}
		return isa.S(4 + pick%10)
	case isa.OperandImm:
		switch {
		case addrPos && isLDS(op):
			return isa.Imm(int32(pick%(refLDSBytes/4)) * 4)
		case addrPos:
			return isa.Imm(refBufBase + int32(pick%refBufWords)*4)
		}
		return isa.Imm(int32(refSpecials[pick%len(refSpecials)]))
	}
	return isa.Operand{}
}

var refExecs = []struct {
	name string
	mask func(r *rand.Rand) uint64
}{
	{"all", func(*rand.Rand) uint64 { return ^uint64(0) }},
	{"none", func(*rand.Rand) uint64 { return 0 }},
	{"one", func(r *rand.Rand) uint64 { return 1 << uint(r.Intn(64)) }},
	{"lane63", func(*rand.Rand) uint64 { return 1 << 63 }},
	{"alternating", func(*rand.Rand) uint64 { return 0xaaaaaaaaaaaaaaaa }},
	{"random", func(r *rand.Rand) uint64 { return r.Uint64() }},
}

// checkInst runs one instruction through the oracle, StepOne and runSegment
// from identical state and reports the first disagreement.
func checkInst(t testing.TB, rs *rigs, in isa.Inst, r *rand.Rand, exec uint64) string {
	rs.bind(refProgram(t, []isa.Inst{in}))
	rs.load(genImage(r, 48, true), exec)
	ref, step, seg := rs[0], rs[1], rs[2]
	kind := kindAt(step.w)
	want := attempt(ref.w.refStep)
	got := attempt(step.w.StepOne)
	if d := diffOutcome(kind, want, got); d != "" {
		return "StepOne: " + d
	}
	if d := diffRigs(ref, step, nanPayloadFree(in.Op)); d != "" {
		return "StepOne: " + d
	}
	if want.panicked {
		return "" // a fault abandons the segment's batched counters
	}
	// StepOne and runSegment share exec, so they must agree to the bit.
	step.w.StepOne() // s_endpgm
	seg.w.runSegment()
	if d := diffRigs(step, seg, false); d != "" {
		return "runSegment vs StepOne: " + d
	}
	return ""
}

// TestLaneKernelsMatchOracle is the table differential: every lane-kernel
// opcode × every source-kind combination × destination aliasing each source
// × the EXEC shapes that separate the full and sparse paths.
func TestLaneKernelsMatchOracle(t *testing.T) {
	kinds := []isa.OperandKind{isa.OperandVReg, isa.OperandSReg, isa.OperandImm, isa.OperandNone}
	r := rand.New(rand.NewSource(12))
	rs := newRigs()
	cases := 0
	for _, op := range laneOps() {
		for _, k0 := range kinds {
			for _, k1 := range kinds {
				for _, k2 := range kinds {
					if k2 != isa.OperandNone && op != isa.OpVMad && op != isa.OpVFFma && r.Intn(4) != 0 {
						continue // an unread third source: sample, don't enumerate
					}
					in := isa.Inst{Op: op,
						Src0: refOperand(op, 0, k0, r.Int()),
						Src1: refOperand(op, 1, k1, r.Int()),
						Src2: refOperand(op, 2, k2, r.Int()),
					}
					dsts := []isa.Operand{isa.V(r.Intn(6))}
					for _, s := range []isa.Operand{in.Src0, in.Src1, in.Src2} {
						if s.Kind == isa.OperandVReg {
							dsts = append(dsts, s) // destination aliases this source
						}
					}
					if op.IsAtomic() {
						dsts = append(dsts, isa.Operand{}) // no return value wanted
					}
					for _, dst := range dsts {
						in.Dst = dst
						in.Offset = int32(r.Intn(33)-16) * int32(r.Intn(2))
						for _, e := range refExecs {
							exec := e.mask(r)
							cases++
							if d := checkInst(t, rs, in, r, exec); d != "" {
								t.Fatalf("case %d: %v (exec %s=%#x): %s", cases, in, e.name, exec, d)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestLDSBoundsMatchOracle walks one lane's LDS address across both edges of
// the allocation, for loads and stores under full and partial EXEC: the
// per-lane bounds check must fault on exactly the addresses the oracle
// faults on, with the same message, and leave the same lanes written.
func TestLDSBoundsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rs := newRigs()
	for _, op := range []isa.Op{isa.OpLDSLoad, isa.OpLDSStore} {
		for _, exec := range []uint64{^uint64(0), 0x8000_0001_0000_0001} {
			for _, probe := range []int{0, 32, 63} {
				for _, off := range []int32{0, -8, 8} {
					for _, edge := range []int{-1, 0, refLDSBytes - 4, refLDSBytes - 3, refLDSBytes} {
						if edge-int(off) < 0 {
							continue // LDS addresses do not wrap: the register cannot hold it
						}
						in := isa.Inst{Op: op, Dst: isa.V(1), Src0: isa.V(refVLDSAddr), Src1: isa.V(2), Offset: off}
						rs.bind(refProgram(t, []isa.Inst{in}))
						img := genImage(r, 0, false)
						for lane := 0; lane < kernel.WavefrontSize; lane++ {
							img.vgpr[refVLDSAddr*kernel.WavefrontSize+lane] = uint32(64 + lane*4)
						}
						img.vgpr[refVLDSAddr*kernel.WavefrontSize+probe] = uint32(int32(edge) - off)
						rs.load(img, exec)
						kind := kindAt(rs[1].w)
						want, got := attempt(rs[0].w.refStep), attempt(rs[1].w.StepOne)
						d := diffOutcome(kind, want, got)
						if d == "" {
							d = diffRigs(rs[0], rs[1], false)
						}
						if d != "" {
							t.Fatalf("%v exec %#x, lane %d at LDS byte %d: %s", in, exec, probe, edge, d)
						}
						if faults := edge < 0 || edge+4 > refLDSBytes; want.panicked != (faults && exec>>uint(probe)&1 == 1) {
							t.Fatalf("%v lane %d at LDS byte %d: oracle panicked = %v", in, probe, edge, want.panicked)
						}
					}
				}
			}
		}
	}
}

// ---- random programs ----

// chooser supplies the bounded decisions of program generation: a seeded
// PRNG for the random differential, the fuzzer's bytes for FuzzLaneKernels.
type chooser interface{ intn(n int) int }

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

type byteChooser struct {
	data []byte
	pos  int
}

func (c *byteChooser) intn(n int) int {
	if n <= 1 || c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b) % n
}

// genProgram emits a straight-line program of lane-kernel, scalar and
// EXEC-mask instructions. Address registers are never written and LDS
// addresses stay in bounds, so the whole program runs; EXEC changes mid-
// program through v_cmp + s_and_saveexec, which is what makes broadcast
// windows go stale if frame.vsrc mishandles them.
func genProgram(c chooser, n int) []isa.Inst {
	kinds := []isa.OperandKind{isa.OperandVReg, isa.OperandSReg, isa.OperandImm}
	ops := laneOps()
	var insts []isa.Inst
	for len(insts) < n {
		switch c.intn(10) {
		case 0: // reshape EXEC from data
			insts = append(insts,
				isa.Inst{Op: isa.OpVCmpLt + isa.Op(c.intn(8)), Src0: isa.V(c.intn(6)),
					Src1: refOperand(isa.OpVCmpLt, 1, kinds[c.intn(3)], c.intn(256))},
				isa.Inst{Op: isa.OpSAndSaveExec, Dst: isa.Mask(c.intn(maskSlots))})
		case 1:
			insts = append(insts, isa.Inst{Op: []isa.Op{isa.OpSMovExecAll, isa.OpSSetExec,
				isa.OpSAndNotExec}[c.intn(3)], Src0: isa.Mask(c.intn(maskSlots))})
		case 2: // scalar traffic, so scalar broadcasts change value
			insts = append(insts, isa.Inst{Op: isa.OpSAdd + isa.Op(c.intn(8)), Dst: isa.S(4 + c.intn(10)),
				Src0: isa.S(4 + c.intn(10)), Src1: isa.Imm(int32(c.intn(256)) - 128)})
		default:
			op := ops[c.intn(len(ops))]
			if op == isa.OpVDiv || op == isa.OpVMod {
				op = isa.OpVMad // a zero divisor would end the program early
			}
			in := isa.Inst{Op: op, Dst: isa.V(c.intn(6)), Offset: int32(c.intn(9)-4) * 4}
			in.Src0 = refOperand(op, 0, kinds[c.intn(3)], c.intn(256))
			in.Src1 = refOperand(op, 1, kinds[c.intn(3)], c.intn(256))
			in.Src2 = refOperand(op, 2, kinds[c.intn(3)], c.intn(256))
			insts = append(insts, in)
		}
	}
	return insts
}

// checkProgram runs the program through the oracle and through StepOne,
// comparing after every instruction, then through runSegment and through
// Step's private runs, comparing their final states with StepOne's and each
// Step's addresses with the oracle's.
func checkProgram(t testing.TB, rs *rigs, insts []isa.Inst, seed int64) {
	prog := refProgram(t, insts)
	rs.bind(prog)
	rs.load(genImage(rand.New(rand.NewSource(seed)), 0, false), ^uint64(0))
	ref, step, seg, run := rs[0], rs[1], rs[2], rs[3]
	var trace [][]uint64 // the oracle's addresses per dynamic instruction
	for !ref.w.Done() {
		pc := ref.w.PC()
		kind := kindAt(step.w)
		want := attempt(ref.w.refStep)
		got := attempt(step.w.StepOne)
		trace = append(trace, want.addrs)
		d := diffOutcome(kind, want, got)
		if d == "" {
			d = diffRigs(ref, step, nanPayloadFree(prog.Insts[pc].Op))
		}
		if d != "" {
			t.Fatalf("StepOne diverged from the oracle at pc%d %v: %s\nprogram:\n%s",
				pc, prog.Insts[pc], d, prog.Disassemble())
		}
		if want.panicked {
			return
		}
	}
	// All three share exec, so they must agree to the bit.
	seg.w.runSegment()
	if d := diffRigs(step, seg, false); d != "" {
		t.Fatalf("runSegment diverged from StepOne: %s\nprogram:\n%s", d, prog.Disassemble())
	}
	for !run.w.Done() {
		if d := stepAgainst(run.w, trace); d != "" {
			t.Fatalf("%s\nprogram:\n%s", d, prog.Disassemble())
		}
	}
	if d := diffRigs(step, run, false); d != "" {
		t.Fatalf("Step's private runs diverged from StepOne: %s\nprogram:\n%s", d, prog.Disassemble())
	}
}

// TestRandomProgramsMatchOracle is the seeded-random differential.
func TestRandomProgramsMatchOracle(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	rs := newRigs()
	for seed := int64(1); seed <= int64(n); seed++ {
		c := randChooser{rand.New(rand.NewSource(seed))}
		checkProgram(t, rs, genProgram(c, 48), seed)
	}
}

// FuzzLaneKernels lets the fuzzer choose the program: the first byte seeds
// the registers, the rest drive genProgram.
func FuzzLaneKernels(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("lane kernels"))
	f.Add([]byte{7, 0, 3, 1, 9, 9, 9, 4, 2, 0, 1, 1, 5, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(1)
		if len(data) > 0 {
			seed, data = int64(data[0]), data[1:]
		}
		checkProgram(t, newRigs(), genProgram(&byteChooser{data: data}, 24), seed)
	})
}

// ---- whole launches ----

// checkLaunch runs a launch four ways — the oracle and StepOne in lockstep,
// one instruction at a time under the group loop's barrier alternation,
// Step's private runs under the same alternation, and Group.RunFunctional's
// segment stepping — and requires identical warp state (registers, masks,
// BBV, InstCount) and memory images, and from StepOne and every Step the
// oracle's addresses. mk returns a
// fresh copy of the launch and a function reading back its memory image.
func checkLaunch(t testing.TB, mk func() (*kernel.Launch, func() []uint32)) {
	t.Helper()
	lRef, memRef := mk()
	lStep, memStep := mk()
	lSeg, memSeg := mk()
	lRun, memRun := mk()
	var gRef, gStep, gSeg, gRun Group
	traces := make([][][]uint64, lRef.WarpsPerGroup) // the oracle's addresses per warp and dynamic instruction
	for g := 0; g < lRef.NumWorkgroups; g++ {
		gRef.Reset(lRef, g)
		gStep.Reset(lStep, g)
		gSeg.Reset(lSeg, g)
		gRun.Reset(lRun, g)
		for i := range traces {
			traces[i] = traces[i][:0]
		}
		for running := true; running; {
			running = false
			for i := range gRef.back {
				ref := &rig{w: &gRef.back[i], lds: gRef.LDS}
				step := &rig{w: &gStep.back[i], lds: gStep.LDS}
				for !ref.w.Done() && !ref.w.AtBarrier() {
					running = true
					pc := ref.w.PC()
					in := lRef.Program.Insts[pc]
					kind := kindAt(step.w)
					want, got := attempt(ref.w.refStep), attempt(step.w.StepOne)
					traces[i] = append(traces[i], want.addrs)
					d := diffOutcome(kind, want, got)
					if d == "" {
						d = diffRigs(ref, step, nanPayloadFree(in.Op))
					}
					if d != "" || want.panicked {
						t.Fatalf("%s group %d warp %d pc%d %v: StepOne vs oracle: %s (panicked: %v)",
							lRef.Name, g, i, pc, in, d, want.panicked)
					}
				}
				for w := &gRun.back[i]; !w.Done() && !w.AtBarrier(); {
					if d := stepAgainst(w, traces[i]); d != "" {
						t.Fatalf("%s group %d warp %d: %s", lRef.Name, g, i, d)
					}
				}
			}
			for i := range gRef.back {
				gRef.back[i].ClearBarrier()
				gStep.back[i].ClearBarrier()
				gRun.back[i].ClearBarrier()
			}
		}
		if err := gSeg.RunFunctional(); err != nil {
			t.Fatal(err)
		}
		for i := range gStep.back {
			a, b := gStep.back[i].Snapshot(), gSeg.back[i].Snapshot()
			if d := a.Diff(&b); d != "" {
				t.Fatalf("%s group %d warp %d: segment stepping vs StepOne:\n%s", lRef.Name, g, i, d)
			}
			r := gRun.back[i].Snapshot()
			if d := a.Diff(&r); d != "" {
				t.Fatalf("%s group %d warp %d: Step's private runs vs StepOne:\n%s", lRef.Name, g, i, d)
			}
		}
	}
	if a, b := memRef(), memStep(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: memory image differs between the oracle and StepOne", lRef.Name)
	}
	if a, b := memStep(), memSeg(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: memory image differs between StepOne and segment stepping", lRef.Name)
	}
	if a, b := memStep(), memRun(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: memory image differs between StepOne and Step's private runs", lRef.Name)
	}
}
