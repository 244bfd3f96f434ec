package verify

import (
	"slices"
	"strings"
	"testing"

	"photon/internal/sim/isa"
)

// gatedCase is an independent program whose EXEC region and store address
// are what its timing reads: the lanes below 40+s2 (a compare that feeds
// EXEC) load their input word and store its double plus input word 0,
// which an s_load reads, through v2 = lane*4 + the warp's output base (an
// address v_mad).
func gatedCase() *Case {
	b := isa.NewBuilder("gated")
	b.Load(isa.OpSLoad, isa.S(6), isa.S(argInBase), 0)
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
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.S(6))
	b.Store(isa.OpVStore, isa.V(2), isa.V(4), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	p := b.MustBuild()
	return &Case{Name: "gated", Seed: 7, NumWorkgroups: 3, WarpsPerGroup: 2,
		InWords: 64, OutWordsPerWarp: 64, AtomicWords: 4, Insts: p.Insts}
}

// The timing-only leg runs on an independent program over no image and
// passes. With the pass made wrong by hand, marking Dead the compare that
// feeds EXEC or the v_mad that computes the store address, the leg reports
// the divergence; with the s_load's micro-op stripped of its scalar-memory
// kind, so that the timing-only step reads its word as the value path
// does, the leg reports the read of the missing image. A timing-only run
// reads Dead and the kind this way alone, so the other legs still pass.
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
	for _, plant := range []struct {
		op  isa.Op
		how string
		do  func(u *isa.MicroOp)
	}{
		{isa.OpVCmpLt, "marked dead", func(u *isa.MicroOp) { u.Dead = true }},
		{isa.OpVMad, "marked dead", func(u *isa.MicroOp) { u.Dead = true }},
		{isa.OpSLoad, "read timing-only", func(u *isa.MicroOp) { u.Step = isa.StepALU }},
	} {
		c := gatedCase()
		p, _ := c.Program()
		pc := slices.IndexFunc(p.Insts, func(in isa.Inst) bool { return in.Op == plant.op })
		plant.do(&p.MicroOps()[pc]) // the planted defect
		var kinds []string
		var details []string
		for _, v := range RunCase(c) {
			kinds = append(kinds, v.Kind)
			details = append(details, v.Detail)
		}
		if !slices.Contains(kinds, "timing-only") || slices.ContainsFunc(kinds, func(k string) bool { return k != "timing-only" }) {
			t.Errorf("%s %s: violations %v, want timing-only ones alone", plant.op, plant.how, kinds)
		}
		if plant.op == isa.OpSLoad && !slices.ContainsFunc(details, func(d string) bool { return strings.HasPrefix(d, "panic: ") }) {
			t.Errorf("%s %s: violations %q, want the read of the missing image", plant.op, plant.how, details)
		}
	}
}
