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

// Slot returns the warp's slot index in its store; the timing machine uses
// it to release slots at workgroup retirement.
func (w *Warp) Slot() int { return w.slot }

// PC returns the warp's program counter.
func (w *Warp) PC() int { return int(w.store.pc[w.slot]) }

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

// Step executes the instruction at PC together with its private run — the
// MicroOp.Run register-only micro-ops behind it, which no other warp can
// observe — under one frame, and advances the warp past them. It returns the
// addresses the instruction at PC touched, the one thing about it the timing
// model cannot read from the micro-op table: the active lanes' byte
// addresses in lane order for a vector memory or atomic instruction, the one
// address of an s_load, and nil for every other kind. The run's micro-ops
// touch no memory, so nothing else is owed. The slice aliases the store's
// scratch buffer and is valid until the next Step on any warp of that store.
// Step must not be called on a Done warp; callers resume barriers by
// ClearBarrier. For a StepAddresses launch of an independent program Step
// computes only what timing reads (frame.execTiming): the instruction
// counts, BB counts, PCs, s_waitcnt bookkeeping and returned addresses are
// those of a full run, the register values timing never reads are not. For
// a StepTape launch Step reads the branch targets and addresses from the
// warp's tape (replayStep) and touches no register and no memory.
func (w *Warp) Step() []uint64 {
	st, slot := w.store, w.slot
	if st.flags[slot]&flagDone != 0 {
		panic(fmt.Sprintf("emu: %s warp %d stepped after s_endpgm", w.Launch.Name, w.GlobalID))
	}
	if st.replaying {
		return w.replayStep()
	}
	uops := w.Launch.Program.MicroOps()
	pc := int(st.pc[slot])
	u := &uops[pc]
	if u.Head {
		st.bb[slot*st.blocks+int(u.Block)]++
	}
	st.instCount[slot] += 1 + uint64(u.Run)

	var f frame
	f.load(w)
	// No block head lies inside a run, so the PC path through it is static
	// and only its last micro-op (the block's branch) can leave it.
	var next int
	if end := pc + 1 + int(u.Run); st.timingOnly {
		for i := pc; i < end; i++ {
			next = f.execTiming(&uops[i], i)
		}
	} else {
		for i := pc; i < end; i++ {
			next = f.exec(&uops[i], i)
		}
	}
	st.pc[slot] = int32(next)
	f.save()
	return f.addrs
}

// runSegment fast-forwards the warp to its next s_barrier or s_endpgm — the
// unit the functional group loop schedules — with the frame hoisted once
// for the whole run. Basic blocks end at branches, barriers and s_endpgm and
// are only ever entered at their head, so the BBV and the instruction count
// are bumped once per block entry rather than once per instruction. A
// StepAddresses launch of an independent program runs frame.execTiming, so
// the counts and PCs are a full run's and no memory is touched, and a
// recording store (record.go) appends each step's streams to the warp's
// tape; the choice is made once per segment, outside the loop.
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
	switch {
	case st.timingOnly:
		for f.flags&(flagDone|flagBarrier) == 0 {
			u := &uops[pc]
			if u.Head {
				bb[u.Block]++
				insts += uint64(u.BlockLen)
			}
			pc = f.execTiming(u, pc)
		}
	case st.recording:
		t := &st.tapes[slot]
		for f.flags&(flagDone|flagBarrier) == 0 {
			u := &uops[pc]
			if u.Head {
				bb[u.Block]++
				insts += uint64(u.BlockLen)
			}
			pc = f.exec(u, pc)
			if u.Step != isa.StepALU || u.Class == isa.FUBranch {
				f.record(t, u, pc)
			}
		}
	default:
		for f.flags&(flagDone|flagBarrier) == 0 {
			u := &uops[pc]
			if u.Head {
				bb[u.Block]++
				insts += uint64(u.BlockLen)
			}
			pc = f.exec(u, pc)
		}
	}
	st.pc[slot] = int32(pc)
	st.instCount[slot] = insts
	f.save()
}
