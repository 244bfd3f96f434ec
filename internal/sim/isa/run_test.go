package isa_test

import (
	"fmt"
	"slices"
	"testing"

	"photon/internal/harness"
	"photon/internal/sim/isa"
	"photon/internal/verify"
	"photon/internal/workloads/dnn"
)

// runPrograms collects every program the tree can build: the workload catalog
// (Table 2, the extensions, PageRank and every DNN builder) at each entry's
// smallest size under a small DNN scale, and 200 programs of verify's random
// generator.
func runPrograms(t *testing.T) map[*isa.Program]string {
	progs := map[*isa.Program]string{}
	for _, wl := range harness.Workloads() {
		size := wl.Min
		if len(wl.Sizes) > 0 {
			size = slices.Min(wl.Sizes)
		}
		app, err := wl.Build(size, dnn.Scale{Input: 32, ChannelDiv: 8})
		if err != nil {
			t.Fatalf("%s at %d: %v", wl.Name, size, err)
		}
		for _, l := range app.Launches {
			progs[l.Program] = wl.Name + "/" + l.Name
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		name := fmt.Sprintf("gen-%d", seed)
		p, err := verify.RandomCase(name, seed).Program()
		if err != nil {
			t.Fatal(err)
		}
		progs[p] = name
	}
	return progs
}

// TestRunCountsFollowingPrivateMicroOps states MicroOp.Run independently of
// how computeBlocks derives it: at every PC of every program, under both
// block options, Run is the number of micro-ops directly behind the PC that
// are StepALU kind and not a block head. So a run never holds a memory, LDS,
// atomic, s_waitcnt, s_barrier or s_endpgm micro-op, never crosses into
// another block, and is empty behind a branch, a barrier, s_endpgm and any
// instruction whose successor is not register-only.
func TestRunCountsFollowingPrivateMicroOps(t *testing.T) {
	private := func(o isa.Op) bool {
		c := o.Class()
		return c != isa.FUScalarMem && c != isa.FUVectorMem && c != isa.FULDS &&
			o != isa.OpSWaitcnt && o != isa.OpSBarrier && o != isa.OpSEndpgm
	}
	var pcs, inRuns, longest int
	for base, name := range runPrograms(t) {
		for _, p := range []*isa.Program{base, base.WithBlockOptions(isa.BlockOptions{SplitAtWaitcnt: true})} {
			uops := p.MicroOps()
			for pc, u := range uops {
				want := 0
				for j := pc + 1; j < len(uops) && uops[j].Step == isa.StepALU && !uops[j].Head; j++ {
					want++
				}
				if int(u.Run) != want {
					t.Fatalf("%s pc%d %v: Run = %d, %d private micro-ops follow\n%s",
						name, pc, p.Insts[pc], u.Run, want, p.Disassemble())
				}
				for _, r := range uops[pc+1 : pc+1+want] {
					if r.Block != u.Block || !private(r.Op) {
						t.Fatalf("%s pc%d: run holds %v (block %d, run started in %d)", name, pc, r.Op, r.Block, u.Block)
					}
				}
				ends := u.Op.EndsBasicBlock() // branch, s_barrier, s_endpgm
				last := pc+1 == len(uops)
				if (ends || last || !private(uops[pc+1].Op) || uops[pc+1].Head) && u.Run != 0 {
					t.Fatalf("%s pc%d %v: Run = %d at a boundary", name, pc, p.Insts[pc], u.Run)
				}
				pcs++
				if u.Step == isa.StepALU && !u.Head {
					inRuns++
				}
				longest = max(longest, want)
			}
		}
	}
	if inRuns == 0 || longest < 6 {
		t.Fatalf("%d of %d static instructions inside runs, longest %d: the corpus exercises nothing", inRuns, pcs, longest)
	}
	t.Logf("%d static instructions, %d inside a run, longest run %d", pcs, inRuns, longest)
}
