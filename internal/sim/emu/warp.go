// Package emu is the functional emulator: it executes warps of a kernel
// launch instruction-by-instruction over real register state, with lane
// masking for divergence. The timing model drives it one private run at a
// time in detailed mode; fast-forward (sampled) modes run it in a tight loop
// with no timing at all — the speed gap between those two paths is exactly
// what sampled simulation exploits.
//
// Warp state lives in a structure-of-arrays WarpStore; a Warp is a thin
// slot handle into one, so batch execution sweeps contiguous slabs.
package emu

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// StepKind tells the timing model what a step did.
type StepKind = isa.StepKind

const (
	StepALU       = isa.StepALU
	StepVectorMem = isa.StepVectorMem
	StepAtomic    = isa.StepAtomic
	StepScalarMem = isa.StepScalarMem
	StepLDS       = isa.StepLDS
	StepBarrier   = isa.StepBarrier
	StepWaitcnt   = isa.StepWaitcnt
	StepDone      = isa.StepDone
)

// StepInfo reports the side effects of executing the instruction a Step
// started at, for the timing model's consumption. Step always sets the static
// fields (Kind through BlockIdx, copied from the instruction's micro-op); the
// dynamic ones are set only by the kinds that have them — Addrs by
// StepVectorMem and StepAtomic, SAddr by StepScalarMem — and otherwise keep
// whatever an earlier Step left. Addrs aliases the warp's store-shared
// scratch buffer and is only valid until the next Step on any warp of that
// store; the private run the same Step executed does not touch it.
type StepInfo struct {
	Kind     StepKind
	Class    isa.FUClass // functional unit the instruction issues to
	Inst     *isa.Inst
	IsStore  bool
	EnteredB bool     // this instruction is the first of a basic block
	BlockIdx int      // static basic-block index containing the instruction
	Addrs    []uint64 // per-active-lane byte addresses for vector memory
	SAddr    uint64   // address for scalar loads
}

// Warp is a handle to one wavefront's architectural state: a slot in a
// WarpStore plus the identity fields that never change over the warp's
// lifetime. Handles are small values; copy them freely, but note that
// copies share the underlying slot.
type Warp struct {
	Launch    *kernel.Launch
	GlobalID  int
	GroupID   int
	IDInGroup int

	store *WarpStore
	slot  int
	lds   []byte // shared with the other warps of the workgroup
}

// NewWarp creates warp warpID of the launch, backed by a private
// single-slot store. lds is the workgroup's local-data-share backing,
// shared between sibling warps. The batch paths (Group, the timing
// machine) bind warps into shared stores instead.
func NewWarp(l *kernel.Launch, globalID int, lds []byte) *Warp {
	w := &Warp{}
	w.Reset(l, globalID, lds)
	return w
}

// Reset reinitializes a standalone warp for a new dispatch, reusing its
// private store's slabs when they are large enough. After Reset the warp is
// indistinguishable from a NewWarp result. Warps bound into a shared store
// are rebound through WarpStore.Bind instead.
func (w *Warp) Reset(l *kernel.Launch, globalID int, lds []byte) {
	if w.store == nil {
		w.store = &WarpStore{}
	}
	w.store.Configure(l, 1)
	*w = w.store.Bind(0, globalID, lds)
}

// Slot returns the warp's slot index in its store; the timing machine uses
// it to release slots at workgroup retirement.
func (w *Warp) Slot() int { return w.slot }

// PC returns the warp's program counter.
func (w *Warp) PC() int { return int(w.store.pc[w.slot]) }

// SCC returns the scalar condition code.
func (w *Warp) SCC() bool { return w.store.scc(w.slot) }

// SetSCC sets the scalar condition code (tests use it).
func (w *Warp) SetSCC(v bool) { w.store.setSCC(w.slot, v) }

// Exec returns the EXEC lane mask.
func (w *Warp) Exec() uint64 { return w.store.exec[w.slot] }

// SetExec sets the EXEC lane mask (tests use it).
func (w *Warp) SetExec(v uint64) { w.store.exec[w.slot] = v }

// VCC returns the vector condition code mask.
func (w *Warp) VCC() uint64 { return w.store.vcc[w.slot] }

// SetVCC sets the vector condition code mask (tests use it).
func (w *Warp) SetVCC(v uint64) { w.store.vcc[w.slot] = v }

// Done reports whether the warp executed s_endpgm.
func (w *Warp) Done() bool { return w.store.flags[w.slot]&flagDone != 0 }

// AtBarrier reports whether the warp is waiting at s_barrier.
func (w *Warp) AtBarrier() bool { return w.store.flags[w.slot]&flagBarrier != 0 }

// ClearBarrier resumes a warp waiting at s_barrier; the group runtimes call
// it once every live sibling has arrived.
func (w *Warp) ClearBarrier() { w.store.flags[w.slot] &^= flagBarrier }

// InstCount returns the number of dynamic instructions executed.
func (w *Warp) InstCount() uint64 { return w.store.instCount[w.slot] }

// BBCounts returns the warp's Basic Block Vector: entry counts per static
// basic block. The slice aliases the store's slab; it is valid until the
// slot is released or rebound.
func (w *Warp) BBCounts() []uint32 {
	s := w.store
	return s.bb[w.slot*s.blocks : (w.slot+1)*s.blocks]
}

func (w *Warp) sregs() []uint32 {
	s := w.store
	return s.sgpr[w.slot*s.sregs : (w.slot+1)*s.sregs]
}

func (w *Warp) vregs() []uint32 {
	s := w.store
	return s.vgpr[w.slot*s.vwords : (w.slot+1)*s.vwords]
}

// SReg returns scalar register i (for tests and debugging).
func (w *Warp) SReg(i int) uint32 { return w.sregs()[i] }

// VReg returns vector register i of the given lane (for tests).
func (w *Warp) VReg(i, lane int) uint32 { return w.vregs()[i*kernel.WavefrontSize+lane] }

// Step executes the instruction at PC together with its private run — the
// MicroOp.Run register-only micro-ops behind it, which no other warp can
// observe — under one frame, and advances the warp past them. info describes
// the instruction at PC alone: the run's micro-ops are StepALU kind and have
// no dynamic side effects to report (the timing machine reads their static
// facts from the micro-op table), and they leave the address buffer alone,
// so Addrs stays that instruction's. Step must not be called on a Done warp;
// callers resume barriers by ClearBarrier.
func (w *Warp) Step(info *StepInfo) {
	st, slot := w.store, w.slot
	if st.flags[slot]&flagDone != 0 {
		panic(fmt.Sprintf("emu: %s warp %d stepped after s_endpgm", w.Launch.Name, w.GlobalID))
	}
	p := w.Launch.Program
	uops := p.MicroOps()
	pc := int(st.pc[slot])
	u := &uops[pc]
	if u.Head {
		st.bb[slot*st.blocks+int(u.Block)]++
	}
	st.instCount[slot] += 1 + uint64(u.Run)

	var f frame
	f.load(w)
	next := f.exec(u, pc)
	// No block head lies inside a run, so the PC path through it is static
	// and only its last micro-op (the block's branch) can leave it.
	for i, end := pc+1, pc+1+int(u.Run); i < end; i++ {
		next = f.exec(&uops[i], i)
	}
	st.pc[slot] = int32(next)
	f.save()
	info.fill(u, &p.Insts[pc], &f)
}

// fill reports the instruction with micro-op u that frame f just executed.
func (info *StepInfo) fill(u *isa.MicroOp, in *isa.Inst, f *frame) {
	info.Kind = u.Step
	info.Class = u.Class
	info.Inst = in
	info.IsStore = u.Store
	info.EnteredB = u.Head
	info.BlockIdx = int(u.Block)
	switch u.Step {
	case StepVectorMem, StepAtomic:
		info.Addrs = f.st.addrBuf[:f.nAddr]
	case StepScalarMem:
		info.SAddr = f.saddr
	}
}

// runSegment fast-forwards the warp to its next s_barrier or s_endpgm — the
// unit the functional group loop schedules — with the frame hoisted once
// for the whole run and no StepInfo. Basic blocks end at branches, barriers
// and s_endpgm and are only ever entered at their head, so the BBV and the
// instruction count are bumped once per block entry rather than once per
// instruction.
func (w *Warp) runSegment() {
	st, slot := w.store, w.slot
	var f frame
	f.load(w)
	if f.flags&(flagDone|flagBarrier) != 0 {
		return
	}
	p := w.Launch.Program
	uops := p.MicroOps()
	bb := st.bb[slot*st.blocks : (slot+1)*st.blocks]
	insts := st.instCount[slot]
	pc := int(st.pc[slot])
	if u := &uops[pc]; !u.Head {
		// A caller single-stepped into this block: its head was counted
		// then, the rest of it is counted here.
		b := p.Blocks[u.Block]
		insts += uint64(b.StartPC + b.Len - pc)
	}
	for f.flags&(flagDone|flagBarrier) == 0 {
		u := &uops[pc]
		if u.Head {
			bb[u.Block]++
			insts += uint64(u.BlockLen)
		}
		pc = f.exec(u, pc)
	}
	st.pc[slot] = int32(pc)
	st.instCount[slot] = insts
	f.save()
}
