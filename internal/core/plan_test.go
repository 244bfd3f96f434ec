package core

import (
	"strings"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/workloads"
)

// A plan's commit holds a pipelined run to what the plan promised: a kernel
// that ran on a helper ended complete and full with the functional advance's
// instruction count, and a kernel-sampled kernel borrows a positive IPC from
// a committed record. A broken promise is an error naming the kernel, and it
// leaves the pending record to a later, correct commit.
func TestPlanCommitChecksPromises(t *testing.T) {
	app, err := workloads.BuildPageRank(256 * 64)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	ph := MustNew(smallGPU(), testParams(), Levels{Kernel: true})
	// advance plans launch i and advances the image past it, as the
	// pipeline does for a kernel it hands off or kernel-samples.
	advance := func(i int) (*gpu.Plan, uint64) {
		l := app.Launches[i]
		plan, err := ph.Plan(g, l)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := emu.RunKernelFunctional(l)
		if err != nil {
			t.Fatal(err)
		}
		plan.Advanced(insts)
		return plan, insts
	}
	wantErr := func(err error, i int, what string) {
		t.Helper()
		if name := app.Launches[i].Name; err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), what) {
			t.Errorf("commit of launch %d: error %v, want one naming %s and %q", i, err, name, what)
		}
	}

	first, insts := advance(0)
	advance(1)
	if first.Execute == nil || !first.Overlap {
		t.Fatal("no tracker is armed, yet the first launch may not overlap")
	}
	sampled, _ := advance(2)
	if sampled.Execute != nil {
		t.Fatal("launch 2 was not kernel-sampled")
	}
	// Launch 2 matched launch 0's record, which is still pending.
	_, err = sampled.Commit(gpu.KernelResult{})
	wantErr(err, 2, "IPC")

	_, err = first.Commit(gpu.KernelResult{Mode: TierWarp, Insts: insts})
	wantErr(err, 0, "planned to end full")
	r, err := first.Execute(g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	r.Insts = insts + 1
	_, err = first.Commit(r)
	wantErr(err, 0, "functional advance")

	r.Insts = insts
	if _, err := first.Commit(r); err != nil {
		t.Fatal(err)
	}
	got, err := sampled.Commit(gpu.KernelResult{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != TierKernel || got.SimTime == 0 {
		t.Errorf("kernel-sampled commit returned %+v", got)
	}
	if ds := ph.Decisions(); len(ds) != 2 || ds[0].Tier != gpu.TierFull || ds[1].Tier != TierKernel {
		t.Errorf("ledger %+v, want the two commits that succeeded", ds)
	}
}

// aluLaunch is a grid of groups workgroups of wpg warps running a few
// vector adds: every warp is of one type, and it touches no memory, so any
// grid is valid.
func aluLaunch(groups, wpg int) *kernel.Launch {
	b := isa.NewBuilder("alu")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.Imm(1))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.V(0))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.V(1))
	b.End()
	return &kernel.Launch{Name: "alu", Program: b.MustBuild(), Memory: mem.NewFlat(),
		NumWorkgroups: groups, WarpsPerGroup: wpg}
}

// A kernel plans Overlap exactly when no armed tracker can stop dispatch,
// and one that may end bb-sampling with workgroups left asks for a Pass. On
// the R9 Nano a gate may fire only after 2 560 retirements: at one warp per
// group 5 119 warps are dispatched by then, at four 3 200 at the fewest.
func TestPlanOverlapsKernelsThatCannotStopDispatch(t *testing.T) {
	cfg := gpu.R9Nano()
	g := gpu.New(cfg)
	cases := []struct {
		groups, wpg int
		canGate     bool
	}{
		{2560, 1, false}, {4096, 1, false}, {5119, 1, false},
		{5120, 1, true}, {16384, 1, true},
		{800, 4, false}, {801, 4, true},
	}
	for _, levels := range []Levels{{BB: true}, {Warp: true}, {BB: true, Warp: true}} {
		ph := MustNew(cfg, testParams(), levels)
		for _, c := range cases {
			plan, err := ph.Plan(g, aluLaunch(c.groups, c.wpg))
			if err != nil {
				t.Fatal(err)
			}
			if plan.Overlap == c.canGate {
				t.Errorf("%+v, %d×%d warps: Overlap %v, want %v", levels, c.groups, c.wpg, plan.Overlap, !c.canGate)
			}
			if wantPass := c.canGate && levels.BB; (plan.Pass != nil) != wantPass {
				t.Errorf("%+v, %d×%d warps: Pass %v, want one %v", levels, c.groups, c.wpg, plan.Pass != nil, wantPass)
			}
		}
	}
}

// A detailed run that gated although its plan ruled the gate out is the
// kernel's error, serial or handed off: here a warp tracker armed on a
// kernel that can stop dispatch, under a plan told it cannot.
func TestExecuteFailsWhenARuledOutGateFires(t *testing.T) {
	g := gpu.New(smallGPU())
	ph := MustNew(smallGPU(), testParams(), Levels{Warp: true})
	l := aluLaunch(4096, 1)
	profile, err := ph.analyze(l)
	if err != nil {
		t.Fatal(err)
	}
	k := &kernelPlan{p: ph, g: g, name: l.Name, profile: profile, armWarp: true}
	_, err = k.execute(g, l)
	if err == nil || !strings.Contains(err.Error(), "planned unable to stop dispatch") {
		t.Fatalf("execute: error %v, want a broken dispatch promise", err)
	}
	k.canGate = true
	r, err := k.execute(g, l)
	if err != nil || r.Mode != TierWarp {
		t.Fatalf("execute as planned: %+v, %v; want a warp-sampled result", r, err)
	}
}
