package emu

import (
	"fmt"

	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// maskSlots is the number of saved-EXEC mask slots per warp (the m0..m7
// operands of s_and_saveexec / s_set_exec).
const maskSlots = 8

// Per-slot flag bits packed into WarpStore.flags.
const (
	flagDone    uint8 = 1 << iota // warp executed s_endpgm
	flagBarrier                   // warp is waiting at s_barrier
	flagSCC                       // scalar condition code
)

// WarpStore holds the architectural state of many warps in
// structure-of-arrays form: one contiguous backing array per field, indexed
// by warp slot, plus a single shared slab each for SGPRs, VGPRs and BBV
// counters (sliced by slot at a fixed per-slot stride). A Warp is just a
// slot handle into a store, so stepping, resetting and snapshotting warps
// sweeps contiguous memory instead of chasing per-warp heap objects.
//
// A store is sized once per launch (Configure) to an exact bound on the
// warps its owner keeps bound at once — timing.ResidentWarpSlots for the
// detailed machine, WarpsPerGroup for a Group — and never grows. It is
// bound to one launch at a time; Configure rebinds it, reusing the slabs
// whenever the new launch's register shape fits. Stores are not safe for
// concurrent use — the parallel harness gives each job its own.
type WarpStore struct {
	launch *kernel.Launch

	// mem is the functional memory warps read and write: the launch's Flat.
	// Gather32 and Scatter32 move a vector load or store in one call per
	// instruction; Read32 and Write32 serve scalar loads and the
	// lane-ordered atomics.
	mem *mem.Flat

	// Per-slot strides into the shared slabs.
	sregs  int // SGPR words per slot
	vwords int // VGPR words per slot (NumVRegs * 64 lanes)
	blocks int // BBV counters per slot

	// One lane per slot; len(pc) is the slot count.
	pc        []int32
	exec      []uint64
	vcc       []uint64
	instCount []uint64
	outMem    []int32 // vector-memory ops since last waitcnt
	flags     []uint8

	// maskSlots lanes per slot.
	masks []uint64

	// Shared register and BBV slabs, stride lanes per slot.
	sgpr []uint32
	vgpr []uint32 // [slot*vwords + reg*64 + lane]
	bb   []uint32

	// LIFO free list of slot indices for Alloc/Release.
	free []int32

	// addrBuf is the scratch address buffer Step's result aliases. One per
	// store (not per warp): Step's caller consumes the addresses before the
	// next Step on the same store, so sharing it saves 512 bytes per slot.
	addrBuf [kernel.WavefrontSize]uint64

	// valBuf stages the lane-compacted values of a partial-EXEC vector load
	// or store; bcast[n] is the broadcast window of a vector instruction's
	// n-th source (see frame.vsrc). Both are dead once the instruction has
	// executed.
	valBuf lanes
	bcast  [3]lanes
}

// Configure binds the store to a launch and sizes it to the given slot
// count, reusing the existing slabs whenever their capacity fits the new
// shape. All slots become free; live handles from a previous configuration
// are invalid. The pooled simulation paths call this once per kernel, so
// steady-state reconfiguration with a stable shape does not allocate.
func (s *WarpStore) Configure(l *kernel.Launch, slots int) {
	p := l.Program
	s.launch = l
	s.mem = l.Memory
	s.sregs = max(p.NumSRegs, kernel.ArgSGPRBase+len(l.Args))
	s.vwords = p.NumVRegs * kernel.WavefrontSize
	s.blocks = p.NumBlocks()
	s.pc = resize(s.pc, slots)
	s.exec = resize(s.exec, slots)
	s.vcc = resize(s.vcc, slots)
	s.instCount = resize(s.instCount, slots)
	s.outMem = resize(s.outMem, slots)
	s.flags = resize(s.flags, slots)
	s.masks = resize(s.masks, slots*maskSlots)
	s.sgpr = resize(s.sgpr, slots*s.sregs)
	s.vgpr = resize(s.vgpr, slots*s.vwords)
	s.bb = resize(s.bb, slots*s.blocks)
	s.free = s.free[:0]
	for i := slots - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
}

// resize returns a slab of n elements, reusing slab's backing array when
// its capacity suffices. The contents are stale until Bind.
func resize[T any](slab []T, n int) []T {
	if cap(slab) >= n {
		return slab[:n]
	}
	return make([]T, n)
}

// Alloc pops a free slot; its contents are stale until Bind. The store
// never grows, so Alloc on an exhausted store is a broken sizing bound and
// panics.
func (s *WarpStore) Alloc() int {
	k := len(s.free) - 1
	if k < 0 {
		panic(fmt.Sprintf("emu: %s: warp store exhausted: all %d slots bound (the bound Configure sized it to)",
			s.launch.Name, len(s.pc)))
	}
	slot := int(s.free[k])
	s.free = s.free[:k]
	return slot
}

// Release returns a slot to the free list. The caller must drop every Warp
// handle for it first; the slot's state is dead the moment it is released.
func (s *WarpStore) Release(slot int) {
	s.free = append(s.free, int32(slot))
}

// Bind resets the slot to warp globalID's dispatch state and returns a
// handle for it. lds is the workgroup's local-data-share backing, shared
// between sibling warps.
func (s *WarpStore) Bind(slot, globalID int, lds []byte) Warp {
	if slot < 0 || slot >= len(s.pc) {
		panic(fmt.Sprintf("emu: %s: bind of slot %d in a %d-slot store",
			s.launch.Name, slot, len(s.pc)))
	}
	l := s.launch
	w := Warp{
		Launch:    l,
		GlobalID:  globalID,
		GroupID:   globalID / l.WarpsPerGroup,
		IDInGroup: globalID % l.WarpsPerGroup,
		store:     s,
		slot:      slot,
		lds:       lds,
	}
	s.resetSlot(slot, &w)
	return w
}

// resetSlot writes warp w's dispatch-time architectural state into the slot:
// zeroed registers and counters, full EXEC, and the launch's dispatch
// conventions (s0=workgroup ID, s1=warp ID within group, s2=global warp ID,
// s3=warps per group, kernel args from s8, v0=lane).
func (s *WarpStore) resetSlot(slot int, w *Warp) {
	s.pc[slot] = 0
	s.exec[slot] = ^uint64(0)
	s.vcc[slot] = 0
	s.instCount[slot] = 0
	s.outMem[slot] = 0
	s.flags[slot] = 0
	clear(s.masks[slot*maskSlots : (slot+1)*maskSlots])
	sgpr := s.sgpr[slot*s.sregs : (slot+1)*s.sregs]
	clear(sgpr)
	sgpr[0] = uint32(w.GroupID)
	sgpr[1] = uint32(w.IDInGroup)
	sgpr[2] = uint32(w.GlobalID)
	sgpr[3] = uint32(s.launch.WarpsPerGroup)
	copy(sgpr[kernel.ArgSGPRBase:], s.launch.Args)
	vgpr := s.vgpr[slot*s.vwords : (slot+1)*s.vwords]
	clear(vgpr)
	if s.vwords > 0 {
		for lane := 0; lane < kernel.WavefrontSize; lane++ {
			vgpr[lane] = uint32(lane)
		}
	}
	clear(s.bb[slot*s.blocks : (slot+1)*s.blocks])
}

func (s *WarpStore) scc(slot int) bool { return s.flags[slot]&flagSCC != 0 }
