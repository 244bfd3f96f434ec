package verify

import (
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/timing"
)

// gatherCase is a dependent program: each lane loads its input word and
// gathers the input word that one names, so a loaded value reaches an
// address; the lanes below 20+s2%32 store the gathered word through a
// partial EXEC and the others branch past the store; every warp then meets
// a barrier. Its 400 workgroups of two warps are five times the 80 that
// SmallConfig's 4 CUs hold at once.
func gatherCase() *Case {
	b := isa.NewBuilder("gather")
	b.I(isa.OpVLShl, isa.V(1), isa.V(0), isa.Imm(2))
	b.I(isa.OpSMul, isa.S(4), isa.S(2), isa.Imm(64*4))
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.S(argOutBase))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(4))
	b.I(isa.OpVAdd, isa.V(3), isa.V(1), isa.S(argInBase))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVAnd, isa.V(4), isa.V(4), isa.Imm(63))
	b.I(isa.OpVLShl, isa.V(4), isa.V(4), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.S(argInBase))
	b.Load(isa.OpVLoad, isa.V(5), isa.V(4), 0)
	b.Waitcnt(0)
	b.I(isa.OpSAnd, isa.S(5), isa.S(2), isa.Imm(31))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(20))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(0), isa.S(5))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.Store(isa.OpVStore, isa.V(2), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.Barrier()
	b.End()
	p := b.MustBuild()
	return &Case{Name: "gather", Seed: 11, NumWorkgroups: 400, WarpsPerGroup: 2,
		InWords: 64, OutWordsPerWarp: 64, AtomicWords: 4, Insts: p.Insts}
}

// The replay leg recycles its tape arenas. On a dependent case with five
// times the workgroups the machine holds at once, the recorder records
// later workgroups into arenas that retired ones put back, again and
// again, and the leg completes and agrees with the executed run.
func TestReplayLegBoundedPool(t *testing.T) {
	c := gatherCase()
	p, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Independent() || p.HasAtomic() {
		t.Fatalf("gather: independent %v, atomic %v; want a dependent program without atomics", p.Independent(), p.HasAtomic())
	}
	l, _, err := c.NewLaunch()
	if err != nil {
		t.Fatal(err)
	}
	compute, _ := SmallConfig()
	if n := timing.ResidentWarpSlots(compute, l) / l.WarpsPerGroup; c.NumWorkgroups < 4*(n+1) {
		t.Fatalf("%d workgroups, %d resident: the arenas are never reused", c.NumWorkgroups, n)
	}
	checkCase(t, c)
}
