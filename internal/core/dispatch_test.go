package core

import (
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/verify"
)

// drainLaunch is a grid of groups workgroups of wpg warps that touches no
// memory, so any grid is valid. The last warp of workgroup i runs a loop of
// vector adds i mod 128 times (once at least) and its siblings end at once,
// so every group holds one warp long after the rest retired and the groups
// drain one at a time: the order in which the machine has dispatched the
// fewest workgroups by a given retirement. A shorter cycle of lengths
// leaves the three-warp bound untight.
func drainLaunch(groups, wpg int) *kernel.Launch {
	b := isa.NewBuilder("drain")
	b.I(isa.OpSAdd, isa.S(4), isa.S(1), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(4), isa.S(3))
	b.Br(isa.OpCBranchSCC1, "end")
	b.I(isa.OpSAnd, isa.S(6), isa.S(0), isa.Imm(127))
	b.I(isa.OpSMov, isa.S(5), isa.Imm(0))
	b.Label("loop")
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.V(0))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(5), isa.S(6))
	b.Br(isa.OpCBranchSCC1, "loop")
	b.Label("end")
	b.End()
	return &kernel.Launch{Name: "drain", Program: b.MustBuild(), Memory: mem.NewFlat(),
		NumWorkgroups: groups, WarpsPerGroup: wpg}
}

// canStopDispatch is sound and tight: on a 4-CU machine whose gate reads
// true from the first poll after minRetires retirements, the earliest any
// tracker's can, a grid at or under dispatchedAtGate dispatches every
// workgroup, and one workgroup more is gated.
func TestCanStopDispatchSoundAndTight(t *testing.T) {
	compute, hier := verify.SmallConfig()
	g := gpu.New(verify.SmallGPU())
	r := minRetires(g)
	for wpg := 1; wpg <= 4; wpg++ {
		bound := dispatchedAtGate(ShapeOf(g, drainLaunch(1, wpg)), r)
		for groups := bound - 2; groups <= bound+2; groups++ {
			l := drainLaunch(groups, wpg)
			if got, want := canStopDispatch(g, l), groups > bound; got != want {
				t.Errorf("%d×%d warps: canStopDispatch %v, want %v", groups, wpg, got, want)
			}
			retired := 0
			m := timing.NewMachine(compute, mem.NewHierarchy(hier), timing.Observer{
				WarpRetired: func(event.Time, *emu.Warp, event.Time) { retired++ },
			})
			m.SetStopDispatch(func() bool { return retired >= r })
			res, err := m.Run(l)
			if err != nil {
				t.Fatal(err)
			}
			if !canStopDispatch(g, l) && !res.Complete {
				t.Errorf("%d×%d warps: gated at workgroup %d, yet canStopDispatch ruled the gate out", groups, wpg, res.NextWG)
			}
			if groups == bound+1 && res.Complete {
				t.Errorf("%d×%d warps: every workgroup dispatched, yet %d is the bound", groups, wpg, bound)
			}
		}
	}
}
