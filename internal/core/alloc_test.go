package core

import (
	"testing"

	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/testutil"
	"photon/internal/workloads"
)

// TestMachineRunZeroAllocWithTrackers extends the timing machine's pooled
// steady-state pin to a run Photon observes: with both intra-kernel trackers
// subscribed (their detectors built during warm-up, their stability checks
// polling every CheckInterval retirements), a Run still never allocates.
func TestMachineRunZeroAllocWithTrackers(t *testing.T) {
	app, err := workloads.BuildReLU(64)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Launches[0]
	profile, err := AnalyzeOnline(l, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Poll from the first retirement on, with windows the runs fill and a
	// threshold no fit meets, so every run feeds the detectors and every
	// poll computes the whole criterion.
	cfg, params := smallGPU(), DefaultParams()
	params.BBWindow, params.WarpWindow, params.Delta = 64, 64, 1e-9
	bbT, wT := newBBTracker(profile, params, 0), newWarpTracker(params, 0)
	m := timing.NewMachine(cfg.Compute, mem.NewHierarchy(cfg.Memory), trackerObserver(bbT, wT))
	run := func() {
		if _, err := m.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	testutil.MustZeroAllocs(t, "timing.Machine.Run with both Photon trackers", run)
	if bbT.adds == 0 || wT.retires == 0 || bbT.triggered || wT.triggered {
		t.Fatalf("trackers did not observe the runs: bb adds %d, warp retires %d", bbT.adds, wT.retires)
	}
}
