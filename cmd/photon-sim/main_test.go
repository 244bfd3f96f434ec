package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// buildSim builds the photon-sim binary into dir.
func buildSim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "photon-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCheckComposesWithTraceAndStore: -check is a switch of the run loop, not
// a wrapper around the runner, so the options that assert on the runner's
// concrete type (-trace, -analysis-store) work with it in any order.
func TestCheckComposesWithTraceAndStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildSim(t, dir)
	for _, tc := range []struct {
		mode, flag, artifact, want string
	}{
		{"full", "-trace", "trace.txt", "trace: "},
		{"photon", "-analysis-store", "store.json", "analysis store: 1 profiles"},
	} {
		path := filepath.Join(dir, tc.artifact)
		out, err := exec.Command(bin, "-check", "-bench", "FIR", "-size", "384", "-mode", tc.mode, tc.flag, path).CombinedOutput()
		if err != nil {
			t.Fatalf("-check -mode %s %s: %v\n%s", tc.mode, tc.flag, err, out)
		}
		for _, want := range []string{tc.want, "audit: 1 kernels, invariants ok", "check: ok"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("-check -mode %s %s: output lacks %q:\n%s", tc.mode, tc.flag, want, out)
			}
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("-check -mode %s %s wrote no %s (%v)", tc.mode, tc.flag, tc.artifact, err)
		}
	}
	// A tier that predicts workgroups instead of executing them leaves the
	// image stale by design: the functional check is skipped, not failed.
	out, err := exec.Command(bin, "-check", "-bench", "relu", "-size", "65536", "-mode", "warp").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "check: skipped (relu ran under warp-sampling, ") {
		t.Errorf("-check -mode warp on ReLU/65536: %v, output:\n%s", err, out)
	}
}

// TestUnknownEnumFlagValues: an unknown value of an enum flag is a usage
// error (exit 2) naming the accepted values, not a silent default.
func TestUnknownEnumFlagValues(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildSim(t, dir)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace-level", "blocks", "-mode", "full", "-trace", filepath.Join(dir, "trace.txt")}, "(want warp|block|inst)"},
		{[]string{"-mode", "bogus"}, "(want " + strings.Join(harness.ModeNames(), "|") + ")"},
		{[]string{"-arch", "bogus"}, "(want r9nano|mi100)"},
		{[]string{"-bench", "bogus"}, "(want one of " + strings.Join(harness.WorkloadNames(), ", ") + ")"},
	} {
		out, err := exec.Command(bin, append([]string{"-bench", "FIR", "-size", "384"}, tc.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: %v, output %q; want exit 2 naming %s", tc.args, err, out, tc.want)
		}
	}
}
