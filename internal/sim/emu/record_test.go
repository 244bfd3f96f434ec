package emu

import (
	"fmt"
	"strings"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// ldsLaunch is four one-warp workgroups that each store to their LDS at
// s0 × stride: a stride of 1<<20 puts every workgroup after the first
// outside it, which panics the emulator.
func ldsLaunch(stride int32) *kernel.Launch {
	b := isa.NewBuilder("lds")
	b.SetLDS(256)
	b.I(isa.OpVMul, isa.V(1), isa.S(0), isa.Imm(stride)) // s0 is the workgroup ID
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(0), 0)
	b.End()
	return &kernel.Launch{Name: "lds", Program: b.MustBuild(), Memory: mem.NewFlat(), NumWorkgroups: 4, WarpsPerGroup: 1}
}

// A recording panic surfaces where a run that executes values meets it:
// the recorder runs workgroup 1 when its warp binds, so the bind of
// workgroup 1 raises the emulator's panic, after workgroup 0 has bound and
// replayed all three of its instructions.
func TestReplayRaisesRecordingPanic(t *testing.T) {
	l := ldsLaunch(1 << 20)
	l.Steps = kernel.StepTape
	var s WarpStore
	s.Configure(l, 1)
	slot := s.Alloc()
	w := s.Bind(slot, 0, nil)
	for !w.Done() {
		w.Step()
	}
	if n := w.InstCount(); n != 3 {
		t.Fatalf("workgroup 0 replayed %d instructions, want 3", n)
	}
	s.Release(slot)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Bind(slot, 1, nil)
		return ""
	}()
	if !strings.HasPrefix(msg, "emu: lds warp 1: ") {
		t.Errorf("the bind of workgroup 1 raised %q, want the emulator's panic in warp 1", msg)
	}
}
