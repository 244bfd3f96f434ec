package verify

import (
	"context"
	"testing"

	"photon/internal/core"
	"photon/internal/harness"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
)

// TestSampledIPCEnvelope is the cross-methodology metamorphic invariant: a
// sampled Photon run of a real workload must land inside the paper's error
// envelope around the full-detailed kernel time (Section 6 reports <4% mean
// error on the hardware configs; the threshold here is looser because this
// deliberately tiny configuration amplifies per-interval variance). The
// Photon run is additionally audited inline (AppObs.Check) so the invariant
// battery runs on a real workload, not just generated programs.
func TestSampledIPCEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates FIR twice")
	}
	cfg := SmallGPU()
	build := func() (*workloads.App, error) { return workloads.BuildFIR(384) }

	app, err := build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := harness.RunApp(cfg, app, gpu.FullRunner{})
	if err != nil {
		t.Fatal(err)
	}

	app, err = build()
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := harness.RunAppInstrumented(context.Background(), cfg, app,
		core.MustNew(cfg, core.DefaultParams(), core.AllLevels()), harness.AppObs{Check: true})
	if err != nil {
		t.Fatalf("audited Photon run failed: %v", err)
	}
	if len(sampled.PerKernel) == 0 {
		t.Fatal("audited run saw no kernels")
	}

	if full.KernelTime == 0 {
		t.Fatal("full baseline simulated nothing")
	}
	diff := float64(sampled.KernelTime) - float64(full.KernelTime)
	if diff < 0 {
		diff = -diff
	}
	errPct := diff / float64(full.KernelTime) * 100
	const envelope = 25.0
	if errPct > envelope {
		t.Fatalf("sampled kernel time %d vs full %d: %.1f%% error exceeds the %.0f%% envelope",
			sampled.KernelTime, full.KernelTime, errPct, envelope)
	}
}
