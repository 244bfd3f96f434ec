package tbpoint

import (
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/stats"
	"photon/internal/workloads"
)

func TestTBPointSamplesRegularWorkload(t *testing.T) {
	app, err := workloads.BuildReLU(8192)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.R9Nano())
	r, err := gpu.RunKernel(New(DefaultParams()), g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != TierSampled || !r.Stale {
		t.Fatalf("mode = %s (stale=%v), want a stale %s", r.Mode, r.Stale, TierSampled)
	}
	app2, _ := workloads.BuildReLU(8192)
	full, err := gpu.RunKernel(gpu.FullRunner{}, gpu.New(gpu.R9Nano()), app2.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	errPct := stats.AbsErrorPct(float64(full.SimTime), float64(r.SimTime))
	if errPct > 60 {
		t.Fatalf("TBPoint ReLU error %.1f%% (full=%d pred=%d)", errPct, full.SimTime, r.SimTime)
	}
	if r.DetailedInsts >= full.Insts {
		t.Fatal("TBPoint did not skip any detailed work")
	}
}

func TestTBPointFallsBackOnSmallKernels(t *testing.T) {
	app, err := workloads.BuildReLU(16)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.R9Nano())
	r, err := gpu.RunKernel(New(DefaultParams()), g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != TierFull || r.Stale {
		t.Fatalf("mode = %s (stale=%v), want an image-exact %s (kernel below MinGroups)", r.Mode, r.Stale, TierFull)
	}
}

func TestGroupTimer(t *testing.T) {
	b := isa.NewBuilder("nop")
	b.End()
	l := &kernel.Launch{Name: "nop", Program: b.MustBuild(), Memory: mem.NewFlat(),
		NumWorkgroups: 2, WarpsPerGroup: 2}
	warp := func(id int) *emu.Warp { return &emu.Warp{GlobalID: id, GroupID: id / l.WarpsPerGroup} }

	gt := newGroupTimer(2)
	gt.OnWarpStart(10, warp(0)) // group 0
	gt.OnWarpStart(11, warp(1)) // group 0
	gt.OnWarpStart(12, warp(2)) // group 1
	gt.OnWarpRetired(40, warp(0), 10)
	gt.OnWarpRetired(50, warp(1), 11) // group 0 done: duration 40
	if gt.meanGroupDuration() != 40 {
		t.Fatalf("mean = %v, want 40 (group 1 unfinished)", gt.meanGroupDuration())
	}
	gt.OnWarpRetired(90, warp(3), 12)
	gt.OnWarpRetired(112, warp(2), 12) // group 1 done: duration 100
	if gt.meanGroupDuration() != 70 {
		t.Fatalf("mean = %v, want 70", gt.meanGroupDuration())
	}
}
