package main

import (
	"testing"

	"photon/internal/harness"
	"photon/internal/sim/emu"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// functionalInsts runs every launch of the app on the functional emulator.
func functionalInsts(t *testing.T, app *workloads.App) (insts uint64) {
	t.Helper()
	for _, l := range app.Launches {
		n, err := emu.RunKernelFunctional(l)
		if err != nil {
			t.Fatal(err)
		}
		insts += n
	}
	return insts
}

// TestBenchNamesMeanWhatTheServiceMeans: photon-sim resolves -bench through
// the workload catalog (FindWorkload + Point, the two calls main makes), so
// `-bench transformer -size 2` is the app a served transformer/2 job and the
// benchmark's multi_kernel workload simulate, and a mixed-case model name
// builds that model instead of parsing depth 0.
func TestBenchNamesMeanWhatTheServiceMeans(t *testing.T) {
	wl, err := harness.FindWorkload("transformer")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := wl.Point(2, dnn.DefaultScale()).Build()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := harness.FindBench("transformer", 2)
	if err != nil {
		t.Fatal(err)
	}
	served, err := pt.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dnn.ScaledTransformer(2, dnn.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := dnn.BuildTransformer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := functionalInsts(t, direct)
	for what, app := range map[string]*workloads.App{"photon-sim": cli, "served": served} {
		if len(app.Launches) != len(direct.Launches) || app.Name != direct.Name {
			t.Errorf("%s transformer/2 = %s with %d kernels, want %s with %d",
				what, app.Name, len(app.Launches), direct.Name, len(direct.Launches))
		}
		if got := functionalInsts(t, app); got != want {
			t.Errorf("%s transformer/2 executes %d instructions, want %d", what, got, want)
		}
	}

	wl, err = harness.FindWorkload("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	app, err := wl.Point(0, dnn.DefaultScale()).Build()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "ResNet-18" || len(app.Launches) != 31 {
		t.Errorf("-bench ResNet18 built %s with %d kernels, want ResNet-18 with 31", app.Name, len(app.Launches))
	}
}
