package emu

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"photon/internal/sim/isa"
)

// Lane kernels: the per-lane work of the vector instructions. Each handler
// resolves its operands once (a vector register to its lane window, a scalar
// register or immediate to a value or a broadcast window), dispatches on the
// opcode once, and then runs a loop with no decision left in it — over all
// 64 lanes when EXEC is full, over the set bits of EXEC otherwise. The
// value semantics themselves live in exec.go, one function per operation;
// the loops here only say which lanes and which operand shapes.

const allLanes = ^uint64(0)

// lanes is one vector register: a wavefront-wide window of the VGPR slab.
type lanes = [isa.WavefrontSize]uint32

// zeroLanes is the source an instruction does not declare; it is never
// written.
var zeroLanes lanes

// window returns the lane window at VGPR slab offset off.
func (f *frame) window(off uint32) *lanes {
	return (*lanes)(f.vgpr[off : off+isa.WavefrontSize])
}

// scalar reads a vector instruction's source that is not a vector register:
// the value every lane sees.
func (f *frame) scalar(k isa.OperandKind, v uint32) uint32 {
	switch k {
	case isa.OperandSReg:
		return f.sgpr[v]
	case isa.OperandImm:
		return v
	}
	return 0 // a source the instruction does not declare
}

// vsrc resolves source n of a vector instruction, once per instruction, to a
// lane window and an index mask: lane i of the source is win[i&mask]. A
// vector register is its own window under mask 63. A scalar register or an
// immediate is broadcast into a per-store scratch window: into every lane
// under full EXEC, so the full-EXEC loops index win[i] with no mask at all,
// and into lane 0 alone otherwise, which the partial-EXEC loops read
// through mask 0. The handlers give the common scalar position, src1, loop
// variants that take the value directly, so a fill is paid only by the rare
// instruction that broadcasts src0 or src2.
func (f *frame) vsrc(n int, k isa.OperandKind, v uint32) (win *lanes, mask int) {
	switch k {
	case isa.OperandVReg:
		return f.window(v), isa.WavefrontSize - 1
	case isa.OperandSReg, isa.OperandImm:
		v = f.scalar(k, v)
		win = &f.st.bcast[n]
		if f.active == allLanes {
			for i := range win {
				win[i] = v
			}
		} else {
			win[0] = v
		}
		return win, 0
	}
	return &zeroLanes, 0
}

// lane returns the lowest set lane of a non-empty mask.
func lane(m uint64) int { return bits.TrailingZeros64(m) & (isa.WavefrontSize - 1) }

func (f *frame) vectorALU(u *isa.MicroOp) {
	d := f.window(u.Dst)
	a, am := f.vsrc(0, u.Kind0, u.Src0)
	c, cm := f.vsrc(2, u.Kind2, u.Src2)
	if f.active != allLanes {
		b, bm := f.vsrc(1, u.Kind1, u.Src1)
		switch u.Op {
		case isa.OpVMov:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am]
			}
		case isa.OpVAdd:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = iadd(a[i&am], b[i&bm])
			}
		case isa.OpVSub:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am] - b[i&bm]
			}
		case isa.OpVMul:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = imul(a[i&am], b[i&bm])
			}
		case isa.OpVMad:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = imul(a[i&am], b[i&bm]) + c[i&cm]
			}
		case isa.OpVLShl:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = shl(a[i&am], b[i&bm])
			}
		case isa.OpVLShr:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = shr(a[i&am], b[i&bm])
			}
		case isa.OpVAnd:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am] & b[i&bm]
			}
		case isa.OpVOr:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am] | b[i&bm]
			}
		case isa.OpVXor:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am] ^ b[i&bm]
			}
		case isa.OpVMin:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = imin(a[i&am], b[i&bm])
			}
		case isa.OpVMax:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = imax(a[i&am], b[i&bm])
			}
		case isa.OpVDiv:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am] / b[i&bm]
			}
		case isa.OpVMod:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = a[i&am] % b[i&bm]
			}
		case isa.OpVFAdd:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fadd(a[i&am], b[i&bm])
			}
		case isa.OpVFSub:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fsub(a[i&am], b[i&bm])
			}
		case isa.OpVFMul:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fmul(a[i&am], b[i&bm])
			}
		case isa.OpVFFma:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = ffma(a[i&am], b[i&bm], c[i&cm])
			}
		case isa.OpVFMin:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fmin(a[i&am], b[i&bm])
			}
		case isa.OpVFMax:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fmax(a[i&am], b[i&bm])
			}
		case isa.OpVFRcp:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = frcp(a[i&am])
			}
		case isa.OpVFSqrt:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fsqrt(a[i&am])
			}
		case isa.OpVFExp:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fexp(a[i&am])
			}
		case isa.OpVFAbs:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = fabs(a[i&am])
			}
		case isa.OpVCvtI2F:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = i2f(a[i&am])
			}
		case isa.OpVCvtF2I:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				d[i] = f2i(a[i&am])
			}
		}
		return
	}
	if u.Kind1 == isa.OperandVReg {
		b := f.window(u.Src1)
		switch u.Op {
		case isa.OpVAdd:
			for i := range d {
				d[i] = iadd(a[i], b[i])
			}
		case isa.OpVSub:
			for i := range d {
				d[i] = a[i] - b[i]
			}
		case isa.OpVMul:
			for i := range d {
				d[i] = imul(a[i], b[i])
			}
		case isa.OpVMad:
			for i := range d {
				d[i] = imul(a[i], b[i]) + c[i]
			}
		case isa.OpVLShl:
			for i := range d {
				d[i] = shl(a[i], b[i])
			}
		case isa.OpVLShr:
			for i := range d {
				d[i] = shr(a[i], b[i])
			}
		case isa.OpVAnd:
			for i := range d {
				d[i] = a[i] & b[i]
			}
		case isa.OpVOr:
			for i := range d {
				d[i] = a[i] | b[i]
			}
		case isa.OpVXor:
			for i := range d {
				d[i] = a[i] ^ b[i]
			}
		case isa.OpVMin:
			for i := range d {
				d[i] = imin(a[i], b[i])
			}
		case isa.OpVMax:
			for i := range d {
				d[i] = imax(a[i], b[i])
			}
		case isa.OpVDiv:
			for i := range d {
				d[i] = a[i] / b[i]
			}
		case isa.OpVMod:
			for i := range d {
				d[i] = a[i] % b[i]
			}
		case isa.OpVFAdd:
			for i := range d {
				d[i] = fadd(a[i], b[i])
			}
		case isa.OpVFSub:
			for i := range d {
				d[i] = fsub(a[i], b[i])
			}
		case isa.OpVFMul:
			for i := range d {
				d[i] = fmul(a[i], b[i])
			}
		case isa.OpVFFma:
			for i := range d {
				d[i] = ffma(a[i], b[i], c[i])
			}
		case isa.OpVFMin:
			for i := range d {
				d[i] = fmin(a[i], b[i])
			}
		case isa.OpVFMax:
			for i := range d {
				d[i] = fmax(a[i], b[i])
			}
		}
	} else {
		b := f.scalar(u.Kind1, u.Src1)
		switch u.Op {
		case isa.OpVAdd:
			for i := range d {
				d[i] = iadd(a[i], b)
			}
		case isa.OpVSub:
			for i := range d {
				d[i] = a[i] - b
			}
		case isa.OpVMul:
			for i := range d {
				d[i] = imul(a[i], b)
			}
		case isa.OpVMad:
			for i := range d {
				d[i] = imul(a[i], b) + c[i]
			}
		case isa.OpVLShl:
			for i := range d {
				d[i] = shl(a[i], b)
			}
		case isa.OpVLShr:
			for i := range d {
				d[i] = shr(a[i], b)
			}
		case isa.OpVAnd:
			for i := range d {
				d[i] = a[i] & b
			}
		case isa.OpVOr:
			for i := range d {
				d[i] = a[i] | b
			}
		case isa.OpVXor:
			for i := range d {
				d[i] = a[i] ^ b
			}
		case isa.OpVMin:
			for i := range d {
				d[i] = imin(a[i], b)
			}
		case isa.OpVMax:
			for i := range d {
				d[i] = imax(a[i], b)
			}
		case isa.OpVDiv:
			for i := range d {
				d[i] = a[i] / b
			}
		case isa.OpVMod:
			for i := range d {
				d[i] = a[i] % b
			}
		case isa.OpVFAdd:
			for i := range d {
				d[i] = fadd(a[i], b)
			}
		case isa.OpVFSub:
			for i := range d {
				d[i] = fsub(a[i], b)
			}
		case isa.OpVFMul:
			for i := range d {
				d[i] = fmul(a[i], b)
			}
		case isa.OpVFFma:
			for i := range d {
				d[i] = ffma(a[i], b, c[i])
			}
		case isa.OpVFMin:
			for i := range d {
				d[i] = fmin(a[i], b)
			}
		case isa.OpVFMax:
			for i := range d {
				d[i] = fmax(a[i], b)
			}
		}
	}
	// The opcodes that read only src0.
	switch u.Op {
	case isa.OpVMov:
		for i := range d {
			d[i] = a[i]
		}
	case isa.OpVFRcp:
		for i := range d {
			d[i] = frcp(a[i])
		}
	case isa.OpVFSqrt:
		for i := range d {
			d[i] = fsqrt(a[i])
		}
	case isa.OpVFExp:
		for i := range d {
			d[i] = fexp(a[i])
		}
	case isa.OpVFAbs:
		for i := range d {
			d[i] = fabs(a[i])
		}
	case isa.OpVCvtI2F:
		for i := range d {
			d[i] = i2f(a[i])
		}
	case isa.OpVCvtF2I:
		for i := range d {
			d[i] = f2i(a[i])
		}
	}
}

// bit returns 1<<i when t holds, else 0, without a branch.
func bit(t bool, i int) uint64 {
	var b uint64
	if t {
		b = 1
	}
	return b << uint(i)
}

func (f *frame) vectorCmp(u *isa.MicroOp) {
	a, am := f.vsrc(0, u.Kind0, u.Src0)
	var vcc uint64
	switch {
	case f.active != allLanes:
		b, bm := f.vsrc(1, u.Kind1, u.Src1)
		switch u.Op {
		case isa.OpVCmpLt:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(ilt(a[i&am], b[i&bm]), i)
			}
		case isa.OpVCmpLe:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(ile(a[i&am], b[i&bm]), i)
			}
		case isa.OpVCmpEq:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(a[i&am] == b[i&bm], i)
			}
		case isa.OpVCmpNe:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(a[i&am] != b[i&bm], i)
			}
		case isa.OpVCmpGt:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(igt(a[i&am], b[i&bm]), i)
			}
		case isa.OpVCmpGe:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(ige(a[i&am], b[i&bm]), i)
			}
		case isa.OpVFCmpLt:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(flt(a[i&am], b[i&bm]), i)
			}
		case isa.OpVFCmpGt:
			for m := f.active; m != 0; m &= m - 1 {
				i := lane(m)
				vcc |= bit(fgt(a[i&am], b[i&bm]), i)
			}
		}
	case u.Kind1 == isa.OperandVReg:
		b := f.window(u.Src1)
		switch u.Op {
		case isa.OpVCmpLt:
			for i := range a {
				vcc |= bit(ilt(a[i], b[i]), i)
			}
		case isa.OpVCmpLe:
			for i := range a {
				vcc |= bit(ile(a[i], b[i]), i)
			}
		case isa.OpVCmpEq:
			for i := range a {
				vcc |= bit(a[i] == b[i], i)
			}
		case isa.OpVCmpNe:
			for i := range a {
				vcc |= bit(a[i] != b[i], i)
			}
		case isa.OpVCmpGt:
			for i := range a {
				vcc |= bit(igt(a[i], b[i]), i)
			}
		case isa.OpVCmpGe:
			for i := range a {
				vcc |= bit(ige(a[i], b[i]), i)
			}
		case isa.OpVFCmpLt:
			for i := range a {
				vcc |= bit(flt(a[i], b[i]), i)
			}
		case isa.OpVFCmpGt:
			for i := range a {
				vcc |= bit(fgt(a[i], b[i]), i)
			}
		}
	default:
		b := f.scalar(u.Kind1, u.Src1)
		switch u.Op {
		case isa.OpVCmpLt:
			for i := range a {
				vcc |= bit(ilt(a[i], b), i)
			}
		case isa.OpVCmpLe:
			for i := range a {
				vcc |= bit(ile(a[i], b), i)
			}
		case isa.OpVCmpEq:
			for i := range a {
				vcc |= bit(a[i] == b, i)
			}
		case isa.OpVCmpNe:
			for i := range a {
				vcc |= bit(a[i] != b, i)
			}
		case isa.OpVCmpGt:
			for i := range a {
				vcc |= bit(igt(a[i], b), i)
			}
		case isa.OpVCmpGe:
			for i := range a {
				vcc |= bit(ige(a[i], b), i)
			}
		case isa.OpVFCmpLt:
			for i := range a {
				vcc |= bit(flt(a[i], b), i)
			}
		case isa.OpVFCmpGt:
			for i := range a {
				vcc |= bit(fgt(a[i], b), i)
			}
		}
	}
	f.vcc = vcc
}

// laneAddrs fills the store's address scratch with the active lanes' byte
// addresses, compacted in lane order, and leaves them in f.addrs.
func (f *frame) laneAddrs(u *isa.MicroOp) {
	a, am := f.vsrc(0, u.Kind0, u.Src0)
	off := uint64(int64(u.Offset))
	addrs := &f.st.addrBuf
	if f.active == allLanes {
		for i := 0; i < len(addrs); i += 4 { // every load and store starts here: unrolled
			addrs[i] = uint64(a[i]) + off
			addrs[i+1] = uint64(a[i+1]) + off
			addrs[i+2] = uint64(a[i+2]) + off
			addrs[i+3] = uint64(a[i+3]) + off
		}
		f.addrs = addrs[:]
		return
	}
	n := 0
	for m := f.active; m != 0; m &= m - 1 {
		addrs[n] = uint64(a[lane(m)&am]) + off
		n++
	}
	f.addrs = addrs[:n]
}

func (f *frame) vectorLoad(u *isa.MicroOp) {
	st := f.st
	f.laneAddrs(u)
	d := f.window(u.Dst)
	if f.active == allLanes {
		st.mem.Gather32(f.addrs, d[:])
	} else {
		vals := st.valBuf[:len(f.addrs)]
		st.mem.Gather32(f.addrs, vals)
		k := 0
		for m := f.active; m != 0; m &= m - 1 {
			d[lane(m)] = vals[k]
			k++
		}
	}
	st.outMem[f.w.slot]++
}

func (f *frame) vectorStore(u *isa.MicroOp) {
	st := f.st
	f.laneAddrs(u)
	v, vm := f.vsrc(1, u.Kind1, u.Src1)
	vals := v[:]
	if f.active != allLanes {
		vals = st.valBuf[:len(f.addrs)]
		k := 0
		for m := f.active; m != 0; m &= m - 1 {
			vals[k] = v[lane(m)&vm]
			k++
		}
	}
	st.mem.Scatter32(f.addrs, vals)
	st.outMem[f.w.slot]++
}

// atomicRMW returns the function computing an atomic's next memory value
// from (old, operand).
func atomicRMW(op isa.Op) func(old, val uint32) uint32 {
	switch op {
	case isa.OpVAtomicAdd:
		return iadd
	case isa.OpVAtomicMax:
		return imax
	case isa.OpVAtomicMin:
		return imin
	case isa.OpVAtomicFAdd:
		return fadd
	}
	panic(fmt.Sprintf("emu: atomicRMW on non-atomic op %s", op))
}

// atomicMem executes a per-lane read-modify-write. Lanes resolve in lane
// order, making intra-warp conflicts on one address deterministic.
func (f *frame) atomicMem(u *isa.MicroOp) {
	st := f.st
	f.laneAddrs(u)
	v, vm := f.vsrc(1, u.Kind1, u.Src1)
	st.outMem[f.w.slot]++
	d := &st.valBuf // old values land here when the instruction names no destination
	if u.DstKind == isa.OperandVReg {
		d = f.window(u.Dst)
	}
	rmw := atomicRMW(u.Op)
	k := 0
	for m := f.active; m != 0; m &= m - 1 {
		i := lane(m)
		addr := f.addrs[k]
		k++
		old := st.mem.Read32(addr)
		st.mem.Write32(addr, rmw(old, v[i&vm]))
		d[i] = old
	}
}

// ldsFault reports an out-of-bounds LDS access.
//
//go:noinline
func (f *frame) ldsFault(addr int) {
	panic(fmt.Sprintf("emu: %s warp %d: LDS access %d out of %d bytes",
		f.w.Launch.Name, f.w.GlobalID, addr, len(f.w.lds)))
}

func (f *frame) ldsLoad(u *isa.MicroOp) {
	a, am := f.vsrc(0, u.Kind0, u.Src0)
	off := int(u.Offset)
	lds := f.w.lds
	d := f.window(u.Dst)
	if f.active == allLanes {
		for i := range d {
			addr := int(a[i]) + off
			if addr < 0 || addr+4 > len(lds) {
				f.ldsFault(addr)
			}
			d[i] = binary.LittleEndian.Uint32(lds[addr:])
		}
		return
	}
	for m := f.active; m != 0; m &= m - 1 {
		i := lane(m)
		addr := int(a[i&am]) + off
		if addr < 0 || addr+4 > len(lds) {
			f.ldsFault(addr)
		}
		d[i] = binary.LittleEndian.Uint32(lds[addr:])
	}
}

func (f *frame) ldsStore(u *isa.MicroOp) {
	a, am := f.vsrc(0, u.Kind0, u.Src0)
	v, vm := f.vsrc(1, u.Kind1, u.Src1)
	off := int(u.Offset)
	lds := f.w.lds
	if f.active == allLanes {
		for i := range a {
			addr := int(a[i]) + off
			if addr < 0 || addr+4 > len(lds) {
				f.ldsFault(addr)
			}
			binary.LittleEndian.PutUint32(lds[addr:], v[i])
		}
		return
	}
	for m := f.active; m != 0; m &= m - 1 {
		i := lane(m)
		addr := int(a[i&am]) + off
		if addr < 0 || addr+4 > len(lds) {
			f.ldsFault(addr)
		}
		binary.LittleEndian.PutUint32(lds[addr:], v[i&vm])
	}
}
