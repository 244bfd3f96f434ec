package core

import (
	"strings"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
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
