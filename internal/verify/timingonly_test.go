package verify

import (
	"slices"
	"testing"

	"photon/internal/sim/isa"
)

// gatedCase is an independent program whose EXEC region and store address
// are what its timing reads: the lanes below 40+s2 (a compare that feeds
// EXEC) load their input word and store its double through v2 = lane*4 +
// the warp's output base (an address v_mad).
func gatedCase() *Case {
	b := isa.NewBuilder("gated")
	b.I(isa.OpSMul, isa.S(4), isa.S(2), isa.Imm(64*4))
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.S(argOutBase))
	b.I(isa.OpVMad, isa.V(2), isa.V(0), isa.Imm(4), isa.S(4))
	b.I(isa.OpSAdd, isa.S(5), isa.S(2), isa.Imm(40))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(0), isa.S(5))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(3), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(argInBase))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.V(4))
	b.Store(isa.OpVStore, isa.V(2), isa.V(4), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	p := b.MustBuild()
	return &Case{Name: "gated", Seed: 7, NumWorkgroups: 3, WarpsPerGroup: 2,
		InWords: 64, OutWordsPerWarp: 64, AtomicWords: 4, Insts: p.Insts}
}

// The timing-only leg runs on an independent program and passes; with the
// pass made wrong by hand, marking Dead the compare that feeds EXEC or the
// v_mad that computes the store address, the leg reports the divergence.
// Dead is read only by a timing-only run, so the other legs still pass.
func TestTimingOnlyLegCatchesPlantedDefects(t *testing.T) {
	c := gatedCase()
	p, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Independent() {
		t.Fatalf("gated is not independent:\n%s", p.Disassemble())
	}
	if !slices.ContainsFunc(p.MicroOps(), func(u isa.MicroOp) bool { return u.Dead }) {
		t.Fatal("gated marks nothing dead: the leg skips nothing")
	}
	checkCase(t, c)
	for _, op := range []isa.Op{isa.OpVCmpLt, isa.OpVMad} {
		c := gatedCase()
		p, _ := c.Program()
		pc := slices.IndexFunc(p.Insts, func(in isa.Inst) bool { return in.Op == op })
		p.MicroOps()[pc].Dead = true // the planted defect
		var kinds []string
		for _, v := range RunCase(c) {
			kinds = append(kinds, v.Kind)
		}
		if !slices.Contains(kinds, "timing-only") || slices.ContainsFunc(kinds, func(k string) bool { return k != "timing-only" }) {
			t.Errorf("%s marked dead: violations %v, want timing-only ones alone", op, kinds)
		}
	}
}
