package emu

import (
	"slices"

	"photon/internal/sim/kernel"
)

// CheckLaunch exposes the three-way launch differential to corpus_test.go,
// which lives in the external test package so it can import internal/verify
// (verify imports emu) for the committed case corpus and the generator.
var CheckLaunch = checkLaunch

// StepOne is Step without the private run: it executes exactly the
// instruction at PC and returns what Step would for it. The per-instruction
// oracles (the reference interpreter comparisons, the semantics tests)
// advance warps with it; production code only ever steps by run.
func (w *Warp) StepOne() []uint64 {
	st, slot := w.store, w.slot
	pc := int(st.pc[slot])
	u := &w.Launch.Program.MicroOps()[pc]
	if u.Head {
		st.bb[slot*st.blocks+int(u.Block)]++
	}
	st.instCount[slot]++
	var f frame
	f.load(w)
	if st.timingOnly {
		st.pc[slot] = int32(f.execTiming(u, pc))
	} else {
		st.pc[slot] = int32(f.exec(u, pc))
	}
	f.save()
	return f.addrs
}

// newWarp binds warp globalID of the launch into a private one-slot store.
// lds is the workgroup's local-data-share backing.
func newWarp(l *kernel.Launch, globalID int, lds []byte) *Warp {
	var s WarpStore
	s.Configure(l, 1)
	w := s.Bind(s.Alloc(), globalID, lds)
	return &w
}

// The register accessors the tests read and prepare warps with.

func (w *Warp) sregs() []uint32 {
	s := w.store
	return s.sgpr[w.slot*s.sregs : (w.slot+1)*s.sregs]
}

func (w *Warp) vregs() []uint32 {
	s := w.store
	return s.vgpr[w.slot*s.vwords : (w.slot+1)*s.vwords]
}

// SReg returns scalar register i.
func (w *Warp) SReg(i int) uint32 { return w.sregs()[i] }

// VReg returns vector register i of the given lane.
func (w *Warp) VReg(i, lane int) uint32 { return w.vregs()[i*kernel.WavefrontSize+lane] }

func (w *Warp) SCC() bool     { return w.store.scc(w.slot) }
func (w *Warp) SetSCC(v bool) { w.store.setSCC(w.slot, v) }

func (w *Warp) Exec() uint64     { return w.store.exec[w.slot] }
func (w *Warp) SetExec(v uint64) { w.store.exec[w.slot] = v }

func (w *Warp) VCC() uint64     { return w.store.vcc[w.slot] }
func (w *Warp) SetVCC(v uint64) { w.store.vcc[w.slot] = v }

func (s *WarpStore) setSCC(slot int, v bool) {
	if v {
		s.flags[slot] |= flagSCC
	} else {
		s.flags[slot] &^= flagSCC
	}
}

// Arenas returns how many tape arenas a replaying store's recorder holds:
// those of its bound workgroups and its free ones.
func (s *WarpStore) Arenas() int {
	n := len(s.rec.free)
	for i, a := range s.held {
		if a != nil && !slices.Contains(s.held[:i], a) {
			n++
		}
	}
	return n
}
