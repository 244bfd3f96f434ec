package gpu

import (
	"fmt"
	"strings"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// passLaunch is four one-warp workgroups that each store to their LDS at
// s0 × stride: a stride of 1<<20 puts every workgroup after the first
// outside it, which panics the emulator.
func passLaunch(stride int32) *kernel.Launch {
	b := isa.NewBuilder("pass")
	b.SetLDS(256)
	b.I(isa.OpVMul, isa.V(1), isa.S(0), isa.Imm(stride)) // s0 is the workgroup ID
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(0), 0)
	b.End()
	return &kernel.Launch{Name: "pass", Program: b.MustBuild(), Memory: mem.NewFlat(), NumWorkgroups: 4, WarpsPerGroup: 1}
}

// started runs a pass over l to its end, or to its failure.
func started(l *kernel.Launch) *Pass {
	p := new(Pass)
	p.Go(l, func(body func()) { body() })
	return p
}

// Take hands Execute the pass's tally, sends it to the live image when no
// pass ran or the pass failed before the workgroups it asks for, and raises
// a failure at or after them where Execute runs; Stop reports the use, and
// Prefixed the prefix Execute named.
func TestPassTakeAndStop(t *testing.T) {
	var idle *Pass
	if _, ok, _ := idle.Take(0); ok {
		t.Error("a nil pass handed out a tally")
	}
	if _, ok, _ := new(Pass).Take(0); ok || new(Pass).Stop() {
		t.Error("a pass nobody started handed out a tally or reports a use")
	}
	if _, named := new(Pass).Prefixed(); named {
		t.Error("a pass reports a prefix nobody named")
	}
	idle.Prefix(3) // a nil pass ignores it

	p := started(passLaunch(4))
	tally, ok, err := p.Take(1)
	if !ok || err != nil || tally.End() != 4 {
		t.Fatalf("Take(1) = %v, %v, %v; want the whole tally", tally, ok, err)
	}
	if n, bb := tally.Warp(3, 0); n == 0 || len(bb) != 1 || bb[0] != 1 {
		t.Errorf("workgroup 3: %d instructions, BB counts %v", n, bb)
	}
	if !p.Stop() {
		t.Error("Stop does not report the tally's use")
	}
	dropped := started(passLaunch(4))
	dropped.Prefix(2)
	if n, named := dropped.Prefixed(); dropped.Stop() || !named || n != 2 {
		t.Errorf("Stop reports a use nobody made, or Prefixed %d, %v; want the prefix of 2 Execute named", n, named)
	}

	// The pass panics at workgroup 1.
	if _, ok, _ := started(passLaunch(1 << 20)).Take(2); ok {
		t.Error("Take(2) handed out a pass that failed at workgroup 1")
	}
	raised := func(from int) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		started(passLaunch(1 << 20)).Take(from)
		return ""
	}
	for _, from := range []int{0, 1} {
		if msg := raised(from); !strings.HasPrefix(msg, "emu: ") || !strings.Contains(msg, "functional pass:") {
			t.Errorf("Take(%d) raised %q, want the emulator's panic with the pass's stack", from, msg)
		}
	}
}
