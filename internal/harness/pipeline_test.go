package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/core"
	"photon/internal/harness/engine"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/verify"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// pipelineCase is one app whose pipelined and serial full-detailed runs must
// agree.
type pipelineCase struct {
	name  string
	build func() (*workloads.App, error)
	// gates marks a one-launch app whose Photon gates fire with workgroups
	// left, so it runs under the gating modes, with a pass beside it.
	gates bool
}

// oneLaunchModes are the modes a one-launch case runs under: the baseline,
// whose one launch takes the serial path, or the gating modes.
func (c pipelineCase) oneLaunchModes() []string {
	if c.gates {
		return []string{"photon", "bb", "warp"}
	}
	return []string{BaselineMode}
}

// tinyScale is the reduced DNN scale the harness tests run the CNNs and the
// transformer at.
var tinyScale = dnn.Scale{Input: 32, ChannelDiv: 16}

// pipelineCases lists every Table-2 benchmark at its smallest size, the
// atomic extensions (HIST, BFS and KMeans fall back to inline runs) and the
// multi-pass reduction, PageRank, the three multi-kernel DNNs at
// tinyScale, the training step at batch 2, and two one-launch apps past
// the pass bound: FIR/16384, which ends bb-sampling, and ReLU/16384, which
// ends warp-sampling under Photon.
// KMeans and BFS run below their smallest catalog size (atomicWarps).
func pipelineCases() []pipelineCase {
	var cs []pipelineCase
	for _, spec := range append(workloads.Table2(), workloads.Extensions()...) {
		size := spec.Sizes[0]
		if w, ok := atomicWarps[spec.Abbr]; ok {
			size = w
		}
		cs = append(cs, pipelineCase{name: spec.Abbr, build: func() (*workloads.App, error) { return spec.Build(size) }})
	}
	return append(cs,
		pipelineCase{name: "PR", build: func() (*workloads.App, error) { return workloads.BuildPageRank(4096) }},
		pipelineCase{name: "Xfmr-L2", build: func() (*workloads.App, error) {
			cfg, err := dnn.ScaledTransformer(2, tinyScale)
			if err != nil {
				return nil, err
			}
			return dnn.BuildTransformer(cfg)
		}},
		pipelineCase{name: "ResNet-18", build: func() (*workloads.App, error) { return dnn.BuildResNet(18, tinyScale) }},
		pipelineCase{name: "VGG-16", build: func() (*workloads.App, error) { return dnn.BuildVGG(16, tinyScale) }},
		pipelineCase{name: "TrainStep", build: func() (*workloads.App, error) { return dnn.BuildTrainingStep(2) }},
		pipelineCase{name: "FIR-16384", build: func() (*workloads.App, error) { return workloads.BuildFIR(16384) }, gates: true},
		pipelineCase{name: "ReLU-16384", build: func() (*workloads.App, error) { return workloads.BuildReLU(16384) }, gates: true},
	)
}

// atomicWarps sizes KMeans and BFS below their smallest catalog size, 1 024
// warps, at which the two took more than half of this package's time under
// -race. Their atomics keep every launch inline under every mode, Photon's
// tiers cannot gate below minRetires warps (2 560 on the R9 Nano) at
// either size, and PKA leaves each of them stale at either size, so the
// smaller apps take the same paths.
var atomicWarps = map[string]int{"KMEANS": 256, "BFS": 512}

func findPipelineCase(t *testing.T, name string) pipelineCase {
	for _, c := range pipelineCases() {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no pipeline case %q", name)
	return pipelineCase{}
}

// The pools of CPUs a leg's run takes its CPUs from: on one the run is
// serial, on two it may spare a CPU, whatever the host has.
const (
	serialCPUs    = 1
	pipelinedCPUs = 2
)

// image reads every allocated word of m.
func image(m *mem.Flat) []uint32 {
	end := m.Alloc(0) // the break: every allocation lies below it
	return m.ReadWords(0, int(end/4))
}

// pipelineRun is one run of a pipeline case: the result with host times
// and each row's Ran and Image zeroed, so that a serial and a pipelined run
// compare equal, the rows as the run returned them, the final image and the
// runner.
type pipelineRun struct {
	res    AppResult
	rows   []KernelRow
	image  []uint32
	runner gpu.Runner
}

// onHelper reports whether a row's Execute ran on a helper GPU.
func onHelper(k KernelRow) bool {
	return k.Ran == RanHelper || k.Ran == RanHelperTimed
}

// runAt builds c's app and runs it under m on a pool of cpus CPUs.
func runAt(t *testing.T, ctx context.Context, c pipelineCase, m mode, cpus int, ao AppObs) (pipelineRun, error) {
	t.Helper()
	app, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.R9Nano()
	return runAppAt(ctx, cfg, app, m.new(cfg, core.DefaultParams()), cpus, ao)
}

// runAppAt runs app under runner on a pool of cpus CPUs.
func runAppAt(ctx context.Context, cfg gpu.Config, app *workloads.App, runner gpu.Runner, cpus int, ao AppObs) (pipelineRun, error) {
	ao.cpus = engine.NewCPUs(cpus)
	res, err := RunAppInstrumented(ctx, cfg, app, runner, ao)
	rows := slices.Clone(res.PerKernel)
	res.Wall = 0
	for i := range res.PerKernel {
		res.PerKernel[i].Wall, res.PerKernel[i].Ran, res.PerKernel[i].Image = 0, "", ""
	}
	return pipelineRun{res, rows, image(app.Mem), runner}, err
}

// modeNamed returns the mode table's row called name.
func modeNamed(t *testing.T, name string) mode {
	for _, m := range modes {
		if m.name == name {
			return m
		}
	}
	t.Fatalf("no mode %q", name)
	return mode{}
}

// functionalMode runs gpu.FunctionalRunner, which the mode table does not
// list: each kernel's plan is the functional advance alone.
var functionalMode = mode{gpu.TierFunctional, func(gpu.Config, core.Params) gpu.Runner { return gpu.FunctionalRunner{} }}

// The pipelined run must reproduce the serial one under every mode, and
// under the functional runner: every per-kernel row, the totals, the tier
// ledger and the final memory image, byte for byte, with every kernel
// audited, and under the full baseline and Photon, whose helpers replay,
// the runs of SPMV, AES, PageRank and the training step are also held to
// a leg that runs each launch through gpu.RunKernel, which executes values
// (valuePath). A dependent launch whose plan may
// overlap (SPMV's and AES's one launch under the full baseline and
// Photon, PageRank's under the full baseline; Photon kernel-samples its
// last) runs on a helper, replaying the tapes it records on a fork of the
// image, so the serial run's executed values are its differential. The
// plans of the baselines PKA and TBPoint, and of the
// functional runner, never overlap, so they stay serial; Photon hands off
// the kernels it can bound, most of ResNet-18's. A handed-off kernel of an
// independent program runs timing-only, every one of ResNet-18's under the
// full baseline and none of SPMV's, whose gathers make it dependent. An
// app of one launch runs under the full baseline, which hands its launch
// off, or, when its gates fire with workgroups left, under the gating
// modes, inline with a functional pass beside it, which FIR/16384's
// bb-sampling uses and whose fork becomes the final image. Only
// bb-sampling asks for a pass, so only under Photon and bb-sampling is
// there one. Both of those programs are independent, so beside the pass
// the kernel runs timing-only, over no image. A pass becomes the image
// only of a kernel that ended bb-sampling or full. The pipelined run hands
// off exactly the launches its serial run's plans let go (mayHandOff).
// Every serial row ran inline or as an advance and left the live or the
// advance's image, and across the cases the pipelined rows take every
// value of Ran and of Image, so no path of the run loop is dead.
func TestPipelinedRunMatchesSerial(t *testing.T) {
	t.Parallel()
	seen := map[any]bool{} // Ran and Image values: "advance" is one of each
	cases := map[string][]mode{}
	legs, ran := 0, 0
	for _, c := range pipelineCases() {
		app, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range append(modes, functionalMode) {
			if len(app.Launches) > 1 || slices.Contains(c.oneLaunchModes(), m.name) {
				cases[c.name] = append(cases[c.name], m)
				legs++
			}
		}
	}
	for _, c := range pipelineCases() {
		t.Run(c.name, func(t *testing.T) {
			var full *pipelineRun // the serial full run, once its leg has run
			for _, m := range cases[c.name] {
				t.Run(m.name, func(t *testing.T) {
					ran++
					want, got := matchesSerial(t, c, m, full)
					for _, k := range got.rows {
						seen[k.Ran], seen[k.Image] = true, true
					}
					if m.name == BaselineMode {
						full = &want
					}
				})
			}
		})
	}
	if ran < legs || t.Failed() {
		return // a filtered or failed run need not cover every path: legs counts every case's
	}
	for _, v := range []any{RanInline, RanTimedBesidePass, RanHelper, RanHelperTimed, RanAdvance,
		ImageLive, ImagePass, ImageReplay, ImageAdvance} {
		if !seen[v] {
			t.Errorf("no pipelined row took %T %q", v, v)
		}
	}
}

// matchesSerial holds c's pipelined run under m to its serial run, and
// returns both. full is the case's serial full run, or nil when its leg has
// not run.
func matchesSerial(t *testing.T, c pipelineCase, m mode, full *pipelineRun) (want, got pipelineRun) {
	ao := AppObs{Check: true}
	want, err := runAt(t, context.Background(), c, m, serialCPUs, ao)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	for _, k := range want.rows {
		if k.Ran != RanInline && k.Ran != RanAdvance || k.Image != ImageLive && k.Image != ImageAdvance {
			t.Errorf("serial run: %s ran %s, image %s; want inline or advance, live or advance", k.Name, k.Ran, k.Image)
		}
	}
	got, err = runAt(t, context.Background(), c, m, pipelinedCPUs, ao)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%d pipelined rows, %d serial", len(got.rows), len(want.rows))
	}
	var handed, timed []string
	for i, k := range got.rows {
		if k.Image == ImagePass && k.Mode != core.TierBB && k.Mode != gpu.TierFull {
			t.Errorf("%s used its pass, but ended %s, not %s or %s", k.Name, k.Mode, core.TierBB, gpu.TierFull)
		}
		if onHelper(k) != want.rows[i].admitted {
			t.Errorf("%s ran %s; the serial run's mayHandOff said %v", k.Name, k.Ran, want.rows[i].admitted)
		}
		if onHelper(k) {
			handed = append(handed, k.Name)
		}
		if k.Ran == RanHelperTimed || k.Ran == RanTimedBesidePass {
			timed = append(timed, k.Name)
		}
	}
	has := func(f func(KernelRow) bool) bool { return slices.ContainsFunc(got.rows, f) }
	if c.name == "FIR-16384" && (m.name == "photon" || m.name == "bb") && !has(func(k KernelRow) bool { return k.Image == ImagePass }) {
		t.Error("no functional pass used")
	}
	besidePass := has(func(k KernelRow) bool { return k.Ran == RanTimedBesidePass })
	switch {
	case m.name == "warp" && besidePass:
		t.Error("a kernel ran timing-only beside a pass under warp-sampling alone, which asks for none")
	case c.gates && m.name != "warp" && !besidePass:
		t.Error("no kernel ran timing-only beside its pass")
	}
	switch {
	case (m.name == "pka" || m.name == "tbpoint" || m.name == gpu.TierFunctional) && len(handed) != 0:
		t.Errorf("%v handed off under a runner whose plans never overlap", handed)
	case m.name == "photon" && c.name == "ResNet-18" && len(handed) == 0:
		t.Error("Photon handed off no kernel of ResNet-18")
	case m.name == BaselineMode && c.name == "ResNet-18" && (len(handed) == 0 || !slices.Equal(timed, handed)):
		t.Errorf("%v of the handed-off kernels %v of ResNet-18 ran timing-only, want all", timed, handed)
	case c.name == "SPMV" && len(timed) != 0:
		t.Errorf("%v of SPMV ran timing-only", timed)
	}
	handsOffLast := (c.name == "SPMV" || c.name == "AES") && (m.name == BaselineMode || m.name == "photon") ||
		c.name == "PR" && m.name == BaselineMode
	if k := got.rows[len(got.rows)-1]; handsOffLast && (k.Ran != RanHelper || k.Image != ImageAdvance) {
		t.Errorf("%s, the last launch, ran %s, image %s; want %s, %s", k.Name, k.Ran, k.Image, RanHelper, ImageAdvance)
	}
	if slices.Contains(valuePathCases, c.name) && (m.name == BaselineMode || m.name == "photon") {
		ref := valuePath(t, c, m)
		for _, run := range []struct {
			name string
			pipelineRun
		}{{"serial", want}, {"pipelined", got}} {
			for i, k := range run.res.PerKernel {
				if r := ref.res.PerKernel[i]; k.SimTime != r.SimTime || k.Insts != r.Insts || k.Mode != r.Mode {
					t.Errorf("%s run: %s: %d cycles, %d instructions, %s; the value path %d, %d, %s",
						run.name, k.Name, k.SimTime, k.Insts, k.Mode, r.SimTime, r.Insts, r.Mode)
				}
			}
			if !slices.Equal(run.image, ref.image) {
				t.Errorf("%s run: final image differs from the value path's first at %#x", run.name, firstDiff(run.image, ref.image))
			}
		}
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("pipelined result differs from serial:\n got %+v\nwant %+v", got.res, want.res)
	}
	if !slices.Equal(got.image, want.image) {
		t.Errorf("final images differ first at %#x (%d and %d words)", firstDiff(got.image, want.image), len(got.image), len(want.image))
	}
	if m.name == gpu.TierFunctional {
		functionalMatchesFull(t, c, got, full)
	}
	return want, got
}

// valuePathCases are the cases TestPipelinedRunMatchesSerial holds to
// valuePath under the full baseline and Photon.
var valuePathCases = []string{"SPMV", "AES", "PR", "TrainStep"}

// valuePath runs c's app under m through gpu.RunKernel, one launch after
// another on one GPU, with each launch as the app built it: every
// detailed run executes values.
func valuePath(t *testing.T, c pipelineCase, m mode) pipelineRun {
	app, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.R9Nano()
	r, g := m.new(cfg, core.DefaultParams()), gpu.New(cfg)
	var res AppResult
	for _, l := range app.Launches {
		k, err := gpu.RunKernel(r, g, l)
		if err != nil {
			t.Fatalf("value path: %s: %v", l.Name, err)
		}
		res.PerKernel = append(res.PerKernel, KernelRow{Name: l.Name, KernelResult: k})
	}
	return pipelineRun{res: res, image: image(app.Mem), runner: r}
}

// functionalMatchesFull holds a functional run to the serial full run of
// the same app, full, run here when nil: the advance is each kernel's whole
// execution, so it counts the full run's instructions and leaves its image.
// KMeans' v_atomic_fadd sums in schedule order, so its bytes may differ.
func functionalMatchesFull(t *testing.T, c pipelineCase, got pipelineRun, full *pipelineRun) {
	if full == nil {
		run, err := runAt(t, context.Background(), c, modeNamed(t, BaselineMode), serialCPUs, AppObs{})
		if err != nil {
			t.Fatal(err)
		}
		full = &run
	}
	for i, k := range got.res.PerKernel {
		if f := full.res.PerKernel[i]; k.Mode != gpu.TierFunctional || k.Insts != f.Insts {
			t.Errorf("%s: %s, %d instructions; the full run counted %d", k.Name, k.Mode, k.Insts, f.Insts)
		}
	}
	if c.name != "KMEANS" && !slices.Equal(got.image, full.image) {
		t.Errorf("image differs from the full run's first at %#x", firstDiff(got.image, full.image))
	}
}

// firstDiff returns the byte address of the first word where two images
// differ.
func firstDiff(a, b []uint32) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return 4 * i
}

// Every mode leaves the serial full run's image unless its runner reports a
// kernel Stale: a sampled tier executes each workgroup it does not predict
// exactly once, and the online analysis runs on a dropped fork. KMeans'
// v_atomic_fadd sums in schedule order, so its bytes may differ from the
// full run's and its image is held to the app's Check instead.
func TestEveryModeLeavesFullRunImage(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"HIST", "KMEANS", "BFS", "REDUCE"} {
		c := findPipelineCase(t, name)
		full, err := runAt(t, context.Background(), c, modeNamed(t, BaselineMode), serialCPUs, AppObs{})
		if err != nil {
			t.Fatal(err)
		}
		want := full.image
		for _, m := range modes {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				app, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := gpu.R9Nano()
				res, err := RunAppInstrumented(context.Background(), cfg, app, m.new(cfg, core.DefaultParams()), AppObs{cpus: engine.NewCPUs(serialCPUs)})
				if err != nil {
					t.Fatal(err)
				}
				// Only the run loop sets a wall, so every row has one, and a
				// serial run lasts at least as long as its kernels.
				var sum time.Duration
				for _, k := range res.PerKernel {
					if k.Wall <= 0 {
						t.Errorf("%s: wall %v, want > 0", k.Name, k.Wall)
					}
					sum += k.Wall
				}
				if res.Wall < sum {
					t.Errorf("run wall %v below its kernels' %v", res.Wall, sum)
				}
				if k, stale := res.StaleKernel(); stale {
					if !k.Stale {
						t.Fatalf("StaleKernel returned %s, which is not Stale", k.Name)
					}
					t.Skipf("%s ran under %s: no checkable image", k.Name, k.Mode)
				}
				if name == "KMEANS" {
					if err := app.Check(); err != nil {
						t.Error(err)
					}
				} else if got := image(app.Mem); !slices.Equal(got, want) {
					t.Errorf("image differs from the full run's first at %#x (%d and %d words)", firstDiff(got, want), len(got), len(want))
				}
			})
		}
	}
}

// cancelAfter is a context that reports cancellation from its n+1st Err
// call on: RunAppInstrumented asks once per launch, so the run is cancelled
// just before launch n.
type cancelAfter struct {
	context.Context
	n     int32
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// A cancelled pipelined run returns exactly the kernels before the signal,
// in order, with the context error, and leaves no helper running. Under
// Photon the tier ledger holds exactly those kernels too: no plan made
// before the signal stays uncommitted, and none is made after it.
func TestPipelinedRunCancelsMidApp(t *testing.T) {
	c := findPipelineCase(t, "Xfmr-L2")
	for _, m := range []mode{modeNamed(t, BaselineMode), modeNamed(t, "photon")} {
		want, err := runAt(t, context.Background(), c, m, serialCPUs, AppObs{})
		if err != nil {
			t.Fatal(err)
		}
		for _, stop := range []int{1, 5, len(want.res.PerKernel) - 1} {
			base := runtime.NumGoroutine()
			ctx := &cancelAfter{Context: context.Background(), n: int32(stop)}
			got, err := runAt(t, ctx, c, m, pipelinedCPUs, AppObs{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, stop before %d: err %v, want context.Canceled", m.name, stop, err)
			}
			if !slices.ContainsFunc(got.rows, onHelper) {
				t.Errorf("%s, stop before %d: no kernel was handed off", m.name, stop)
			}
			if !reflect.DeepEqual(got.res.PerKernel, want.res.PerKernel[:stop]) {
				t.Errorf("%s, stop before %d: got %d kernels, want the serial prefix of %d", m.name, stop, len(got.res.PerKernel), stop)
			}
			if ds := decisionsOf(got.runner); want.res.Decisions != nil && !reflect.DeepEqual(ds, want.res.Decisions[:stop]) {
				t.Errorf("%s, stop before %d: ledger holds %d decisions, want the serial prefix of %d", m.name, stop, len(ds), stop)
			}
			noGoroutinesAbove(t, base, fmt.Sprintf("%s, stop before %d", m.name, stop))
		}
	}
}

// noGoroutinesAbove fails the test unless the process is back to at most
// base goroutines within ten seconds: a goroutine that closed its done
// channel may take a moment to exit.
func noGoroutinesAbove(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive the run (%d before)", what, runtime.NumGoroutine(), base)
		}
	}
}

// Telemetry merges as if the run were serial, under the full baseline and
// under Photon: the same registry snapshot, one kernel span per launch in
// launch order, and every kernel audited on the GPU that ran it (a read of
// another GPU's hierarchy would race). Spans go on the thread that ran them,
// so on each thread any two nest or are disjoint, which is all the Chrome
// trace format can draw; a serial run keeps every span on the run's own
// thread. ResNet-18 hands kernels off; ReLU/16384 under bb-sampling runs
// its one kernel inline with a functional pass beside it, whose span
// (category functional) goes on a helper GPU's thread; and SPMV under the
// full baseline replays on a helper the recording that the functional
// advance makes on the run's own thread.
func TestPipelinedRunMergesTelemetry(t *testing.T) {
	const tid = 3
	t.Parallel()
	observed := func(c pipelineCase, m mode, cpus int) (obs.Snapshot, []string, []obs.TraceEvent, pipelineRun) {
		reg, tr := obs.NewRegistry(), obs.NewTraceBuffer()
		var spans []string
		var evs []obs.TraceEvent
		tr.OnEvent(func(ev obs.TraceEvent) {
			if ev.Ph == "X" {
				evs = append(evs, ev)
			}
			if ev.Cat == "kernel" {
				spans = append(spans, ev.Name)
			}
		})
		run, err := runAt(t, context.Background(), c, m, cpus, AppObs{Metrics: reg, Trace: tr, TID: tid, Check: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range evs {
			if cpus == serialCPUs && a.TID != tid {
				t.Errorf("%s serial run: span %s on thread %d, want %d", m.name, a.Name, a.TID, tid)
			}
			for _, b := range evs[i+1:] {
				if a.PID != b.PID || a.TID != b.TID {
					continue
				}
				if b.TS < a.TS || b.TS == a.TS && b.Dur > a.Dur {
					a, b = b, a
				}
				if b.TS < a.TS+a.Dur && b.TS+b.Dur > a.TS+a.Dur {
					t.Errorf("%s: spans %s and %s partially overlap on (%d, %d)", m.name, a.Name, b.Name, a.PID, a.TID)
				}
			}
		}
		return reg.Snapshot(), spans, evs, run
	}
	for _, tc := range []struct {
		c     pipelineCase
		modes []string
	}{
		{findPipelineCase(t, "ResNet-18"), []string{BaselineMode, "photon"}},
		{findPipelineCase(t, "ReLU-16384"), []string{"bb"}},
		{findPipelineCase(t, "SPMV"), []string{BaselineMode}},
	} {
		app, _ := tc.c.build()
		var names []string
		for _, l := range app.Launches {
			names = append(names, app.Name+"/"+l.Name)
		}
		for _, name := range tc.modes {
			m := modeNamed(t, name)
			wantSnap, wantSpans, _, _ := observed(tc.c, m, serialCPUs)
			gotSnap, gotSpans, evs, run := observed(tc.c, m, pipelinedCPUs)
			used := slices.ContainsFunc(run.rows, func(k KernelRow) bool { return k.Image == ImagePass })
			if !used && !slices.ContainsFunc(run.rows, onHelper) {
				t.Fatalf("%s/%s: no kernel was handed off and no pass used", tc.c.name, m.name)
			}
			if used && !slices.ContainsFunc(evs, func(ev obs.TraceEvent) bool {
				return ev.Cat == "functional" && ev.TID > 1<<16 && ev.Dur > 0
			}) {
				t.Errorf("%s/%s: no functional pass span on a helper thread", tc.c.name, m.name)
			}
			for i, ev := range slices.DeleteFunc(evs, func(ev obs.TraceEvent) bool { return ev.Cat != "kernel" }) {
				if k := run.rows[i]; ev.Args["ran"] != string(k.Ran) || ev.Args["image"] != string(k.Image) {
					t.Errorf("%s/%s: span %s says ran %v, image %v; its row %s, %s", tc.c.name, m.name, ev.Name, ev.Args["ran"], ev.Args["image"], k.Ran, k.Image)
				}
			}
			if len(wantSnap.Counters) == 0 || len(wantSnap.Histograms) == 0 {
				t.Fatalf("%s/%s: the serial run published no counters or histograms", tc.c.name, m.name)
			}
			if !reflect.DeepEqual(gotSnap, wantSnap) {
				t.Errorf("%s/%s: pipelined registry snapshot differs from serial:\n got %+v\nwant %+v", tc.c.name, m.name, gotSnap, wantSnap)
			}
			if !slices.Equal(gotSpans, names) || !slices.Equal(wantSpans, names) {
				t.Errorf("%s/%s: kernel spans out of launch order:\npipelined %v\nserial    %v\nlaunches  %v", tc.c.name, m.name, gotSpans, wantSpans, names)
			}
		}
	}
}

// AppResult.Wall is the run's elapsed time: it fits inside a stopwatch
// around the call, and a pipelined run, whose kernels overlap, lasts less
// than its kernels' walls summed. The test reads walls, so it runs alone.
func TestPipelinedRunWallIsElapsed(t *testing.T) {
	app, err := findPipelineCase(t, "ResNet-18").build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := RunAppInstrumented(context.Background(), gpu.R9Nano(), app, gpu.FullRunner{}, AppObs{cpus: engine.NewCPUs(pipelinedCPUs)})
	stopwatch := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(res.PerKernel, onHelper) {
		t.Fatal("no kernel was handed off")
	}
	if res.Wall > stopwatch {
		t.Errorf("run wall %v exceeds the %v around the call", res.Wall, stopwatch)
	}
	var sum time.Duration
	for _, k := range res.PerKernel {
		sum += k.Wall
	}
	if sum <= res.Wall {
		t.Errorf("kernel walls sum to %v, want more than the run's %v", sum, res.Wall)
	}
}

// ldsFaultApp is a two-launch app whose first kernel has two workgroups:
// the first stores inside its LDS and the second far outside it, which
// panics the emulator under every runner, while Photon's online analysis,
// which samples only the first, passes. The second kernel only ends. When
// dependent, the faulting kernel first loads a zero word and branches past
// the store unless it reads zero: a loaded value then reaches a compare, so
// the program is dependent and a helper records its values on a fork.
func ldsFaultApp(dependent bool) *workloads.App {
	m := mem.NewFlat()
	fault := isa.NewBuilder("lds_fault")
	fault.SetLDS(256)
	var args []uint32
	if dependent {
		args = []uint32{uint32(m.Alloc(4))}
		fault.Load(isa.OpSLoad, isa.S(4), isa.S(8), 0) // s8 is the zero word's address
		fault.Waitcnt(0)
		fault.I(isa.OpSCmpEq, isa.Operand{}, isa.S(4), isa.Imm(0))
		fault.Br(isa.OpCBranchSCC0, "end")
	}
	fault.I(isa.OpVMul, isa.V(1), isa.S(0), isa.Imm(1<<20)) // s0 is the workgroup ID
	fault.Store(isa.OpLDSStore, isa.V(1), isa.V(0), 0)
	fault.Label("end")
	fault.End()
	idle := isa.NewBuilder("idle")
	idle.End()
	launch := func(p *isa.Program, groups int, args []uint32) *kernel.Launch {
		return &kernel.Launch{Name: p.Name, Program: p, Memory: m, NumWorkgroups: groups, WarpsPerGroup: 1, Args: args}
	}
	return &workloads.App{Name: "Fault", Mem: m,
		Launches: []*kernel.Launch{launch(fault.MustBuild(), 2, args), launch(idle.MustBuild(), 1, nil)}}
}

// A kernel that panics the simulator fails its run with an error that names
// it and carries the stack, whether it ran inline or on a helper, under the
// full baseline and under Photon: the helper's panic must not take the
// process down, the error is the serial run's, and no helper outlives the
// run. The faulting kernel has no row, so the frame that met the fault
// shows the path it took: serially the inline run. The dependent faulting
// kernel's helper records its workgroups on its fork, meets the fault
// itself, and the error carries the helper's stack. The independent one's helper runs timing-only
// and skips the LDS store, so the error is the functional advance's beside
// it, from the run's goroutine.
func TestPipelinedRunFailsOnHelperPanic(t *testing.T) {
	for _, dependent := range []bool{false, true} {
		if got := ldsFaultApp(dependent).Launches[0].Program.Independent(); got == dependent {
			t.Fatalf("the faulting program built with dependent %v reports Independent %v", dependent, got)
		}
		for _, name := range []string{BaselineMode, "photon"} {
			var first string
			for _, cpus := range []int{serialCPUs, pipelinedCPUs} {
				base := runtime.NumGoroutine()
				cfg := gpu.R9Nano()
				_, err := RunAppInstrumented(context.Background(), cfg, ldsFaultApp(dependent), modeNamed(t, name).new(cfg, core.DefaultParams()), AppObs{cpus: engine.NewCPUs(cpus)})
				if err == nil {
					t.Fatalf("%s, dependent %v, cpus %d: the faulting kernel did not fail the run", name, dependent, cpus)
				}
				msg := err.Error()
				line, _, _ := strings.Cut(msg, "\n")
				if !strings.HasPrefix(line, "harness: Fault/lds_fault under "+name+": panic: emu: lds_fault") ||
					!strings.Contains(msg, "goroutine ") {
					t.Fatalf("%s, dependent %v, cpus %d: error %q, want the kernel's panic with its stack", name, dependent, cpus, msg)
				}
				// The stack names the frame that met the fault: the inline
				// run, the helper's goroutine, or the functional advance.
				origin := "(*pipeline).inline"
				switch {
				case cpus == serialCPUs:
				case dependent:
					origin = "(*pipeline).handOff.func"
				default:
					origin = "(*pipeline).advance"
				}
				if !strings.Contains(msg, origin) {
					t.Errorf("%s, dependent %v, cpus %d: the error's stack does not pass through %s:\n%s", name, dependent, cpus, origin, msg)
				}
				if first == "" {
					first = line
				} else if line != first {
					t.Errorf("%s, dependent %v: pipelined error %q, serial %q", name, dependent, line, first)
				}
				noGoroutinesAbove(t, base, fmt.Sprintf("%s, dependent %v, cpus %d", name, dependent, cpus))
			}
		}
	}
}

// faultApp is one launch, called kernel, of 8192 one-warp workgroups whose
// workgroup fault stores far outside its LDS, which panics the emulator;
// every other one stores inside it. The program is independent: the store
// is an LDS op, which a timing-only run skips.
func faultApp(app, kernelName string, fault int) *workloads.App {
	const groups = 8192
	m := mem.NewFlat()
	b := isa.NewBuilder(kernelName)
	b.SetLDS(256)
	b.I(isa.OpVXor, isa.V(1), isa.S(0), isa.Imm(int32(fault))) // s0 is the workgroup ID
	b.I(isa.OpVSub, isa.V(1), isa.V(1), isa.Imm(1))
	b.I(isa.OpVLShr, isa.V(1), isa.V(1), isa.Imm(31)) // 1 in workgroup fault, 0 in every other
	b.I(isa.OpVMul, isa.V(1), isa.V(1), isa.Imm(1<<20))
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(0), 0)
	b.End()
	l := &kernel.Launch{Name: kernelName, Program: b.MustBuild(), Memory: m, NumWorkgroups: groups, WarpsPerGroup: 1}
	return &workloads.App{Name: app, Mem: m, Launches: []*kernel.Launch{l}}
}

// lateFaultApp faults in its last workgroup. The online analysis samples
// every 99th workgroup, never the last, and either gate fires long before
// the last is dispatched, so only a functional run of the workgroups after
// the gate meets the fault.
func lateFaultApp() *workloads.App { return faultApp("LateFault", "late_fault", 8191) }

// earlyFaultApp faults in workgroup 1, which the online analysis does not
// sample and every run executes: a serial run's detailed prefix meets the
// fault.
func earlyFaultApp() *workloads.App { return faultApp("EarlyFault", "early_fault", 1) }

// A pass fails only where the serial run does. Under bb-sampling the
// workgroups after the gate run functionally, serially after the prefix or
// in the pass beside it, and the last one's panic fails the run with the
// serial run's error either way, raised again from the pass. Under Photon
// the warp gate fires first and predicts those workgroups without running
// them: the serial run succeeds, and the pass that met the fault is dropped
// without a word. No pass outlives its run.
func TestPipelinedPassFailsLikeSerial(t *testing.T) {
	c := pipelineCase{name: "LateFault", build: func() (*workloads.App, error) { return lateFaultApp(), nil }}
	for _, name := range []string{"bb", "photon"} {
		m := modeNamed(t, name)
		want, wantErr := runAt(t, context.Background(), c, m, serialCPUs, AppObs{})
		base := runtime.NumGoroutine()
		got, err := runAt(t, context.Background(), c, m, pipelinedCPUs, AppObs{})
		noGoroutinesAbove(t, base, name)
		switch name {
		case "bb":
			if wantErr == nil || err == nil {
				t.Fatalf("bb: serial error %v, pipelined error %v; want the late workgroup's panic", wantErr, err)
			}
			line, _, _ := strings.Cut(err.Error(), "\n")
			wantLine, _, _ := strings.Cut(wantErr.Error(), "\n")
			if !strings.HasPrefix(wantLine, "harness: LateFault/late_fault under bb-sampling: panic: emu: ") || line != wantLine {
				t.Errorf("bb: pipelined error %q, serial %q", line, wantLine)
			}
			if !strings.Contains(err.Error(), "functional pass:") {
				t.Errorf("bb: the pipelined error does not carry the pass's stack:\n%v", err)
			}
		case "photon":
			if wantErr != nil || err != nil {
				t.Fatalf("photon: serial error %v, pipelined error %v; want none", wantErr, err)
			}
			if k := got.res.PerKernel[0]; k.Mode != core.TierWarp {
				t.Fatalf("photon: the kernel ended %s, want %s", k.Mode, core.TierWarp)
			}
			if k := got.rows[0]; !reflect.DeepEqual(got.res, want.res) || k.Ran != RanTimedBesidePass || k.Image != ImageReplay {
				t.Errorf("photon: pipelined result %+v (ran %s, image %s), serial %+v; want the pass dropped for a replay", got.res, k.Ran, k.Image, want.res)
			}
		}
	}
}

// A fault in a workgroup the prefix executes fails the pipelined run as it
// fails the serial one, whatever the kernel's outcome. Serially the
// detailed prefix meets it. Beside a pass the prefix runs timing-only,
// skips the LDS store and gates as if nothing happened, so the pass or the
// run loop meets the fault instead: under bb-sampling the kernel takes the
// whole pass, whose panic is raised again in Execute; under Photon the warp
// gate fires, and the run loop's functional advance over the prefix panics;
// under a Photon whose trackers can never trigger, the kernel ends full and
// the run loop waits for the whole pass, which panics. The faulting kernel
// has no row, so the pass's stack or the replay's frame shows the path.
// Each error's first line is the serial run's, and no goroutine outlives
// the run.
func TestPipelinedPrefixFaultFailsLikeSerial(t *testing.T) {
	cfg := gpu.R9Nano()
	never := neverGates()
	for _, tc := range []struct {
		name   string
		runner func() gpu.Runner
		origin string // a frame or line the pipelined error carries
	}{
		{"bb", func() gpu.Runner { return modeNamed(t, "bb").new(cfg, core.DefaultParams()) }, "functional pass:"},
		{"photon", func() gpu.Runner { return modeNamed(t, "photon").new(cfg, core.DefaultParams()) }, "(*pipeline).replay"},
		{"full", func() gpu.Runner { return core.MustNew(cfg, never, core.AllLevels()) }, "functional pass:"},
	} {
		_, wantErr := runAppAt(context.Background(), cfg, earlyFaultApp(), tc.runner(), serialCPUs, AppObs{})
		base := runtime.NumGoroutine()
		_, err := runAppAt(context.Background(), cfg, earlyFaultApp(), tc.runner(), pipelinedCPUs, AppObs{})
		noGoroutinesAbove(t, base, tc.name)
		if wantErr == nil || err == nil {
			t.Fatalf("%s: serial error %v, pipelined error %v; want workgroup 1's panic", tc.name, wantErr, err)
		}
		line, _, _ := strings.Cut(err.Error(), "\n")
		wantLine, _, _ := strings.Cut(wantErr.Error(), "\n")
		if !strings.HasPrefix(wantLine, "harness: EarlyFault/early_fault under ") ||
			!strings.Contains(wantLine, ": panic: emu: early_fault warp 1: LDS access") || line != wantLine {
			t.Errorf("%s: pipelined error %q, serial %q", tc.name, line, wantLine)
		}
		if !strings.Contains(err.Error(), tc.origin) {
			t.Errorf("%s: the pipelined error does not carry %q:\n%v", tc.name, tc.origin, err)
		}
	}
}

// neverGates is the default parameters with thresholds no share reaches,
// so Photon's trackers, though armed, never trigger.
func neverGates() core.Params {
	p := core.DefaultParams()
	p.StableBBRate, p.DominantWarpShare = 2, 2
	return p
}

// A kernel that ends full beside its pass leaves the pass's image. ReLU/8192
// can stop dispatch, so a Photon with bb armed asks for a pass; its program
// is independent, so its detailed run is timing-only, over no image, and
// with trackers that never trigger it runs every workgroup. The run loop
// then adopts the whole pass, and the pipelined run's rows and image equal
// the serial run's.
func TestPipelinedFullOutcomeAdoptsPass(t *testing.T) {
	t.Parallel()
	cfg := gpu.R9Nano()
	run := func(cpus int) pipelineRun {
		app, err := workloads.BuildReLU(8192)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runAppAt(context.Background(), cfg, app, core.MustNew(cfg, neverGates(), core.AllLevels()), cpus, AppObs{Check: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, got := run(serialCPUs), run(pipelinedCPUs)
	if k := want.rows[0]; k.Ran != RanInline || k.Image != ImageLive {
		t.Fatalf("serial run: relu ran %s, image %s; want inline, live", k.Ran, k.Image)
	}
	if len(got.rows) != 1 || got.rows[0].Mode != gpu.TierFull || got.rows[0].Ran != RanTimedBesidePass || got.rows[0].Image != ImagePass {
		t.Errorf("rows %+v, want relu's one %s row, run %s, image %s", got.rows, gpu.TierFull, RanTimedBesidePass, ImagePass)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("pipelined result differs from serial:\n got %+v\nwant %+v", got.res, want.res)
	}
	if !slices.Equal(got.image, want.image) {
		t.Errorf("final images differ first at %#x", firstDiff(got.image, want.image))
	}
}

// A run cancelled while a kernel with a pass runs stops at the next launch,
// as a serial run does, and leaves no pass behind, whether the kernel used
// its pass (ReLU/16384 under bb-sampling) or dropped it (under Photon,
// where warp-sampling fires first). The app launches its kernel twice; the
// signal comes during the first launch.
func TestPipelinedPassCancelsMidKernel(t *testing.T) {
	c := pipelineCase{name: "ReLU-16384x2", build: func() (*workloads.App, error) {
		app, err := workloads.BuildReLU(16384)
		if err == nil {
			app.Launches = append(app.Launches, app.Launches[0])
		}
		return app, err
	}}
	for _, tc := range []struct {
		mode string
		used bool
	}{{"bb", true}, {"photon", false}} {
		m := modeNamed(t, tc.mode)
		want, err := runAt(t, context.Background(), c, m, serialCPUs, AppObs{})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		got, err := runAt(t, &cancelAfter{Context: context.Background(), n: 1}, c, m, pipelinedCPUs, AppObs{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled", tc.mode, err)
		}
		if used := len(got.rows) > 0 && got.rows[0].Image == ImagePass; used != tc.used {
			t.Errorf("%s: pass used %v, want %v", tc.mode, used, tc.used)
		}
		if !reflect.DeepEqual(got.res.PerKernel, want.res.PerKernel[:1]) {
			t.Errorf("%s: got kernels %+v, want the serial first %+v", tc.mode, got.res.PerKernel, want.res.PerKernel[:1])
		}
		noGoroutinesAbove(t, base, tc.mode)
	}
}

// A recording fault fails a pipelined run like the serial run. The
// dependent faulting launch of ldsFaultApp, alone, is the last launch: its
// pipelined run hands it to a helper, whose recording on the fork meets
// the fault at the bind of workgroup 1, and the serial run's inline
// detailed run executes the fault. Under the full baseline and under
// Photon the error's first line is the serial run's, it carries the
// helper's stack, and no goroutine outlives the run.
func TestPipelinedRecordingFaultFailsLikeSerial(t *testing.T) {
	app := func() *workloads.App {
		a := ldsFaultApp(true)
		a.Launches = a.Launches[:1]
		return a
	}
	cfg := gpu.R9Nano()
	for _, name := range []string{BaselineMode, "photon"} {
		runner := func() gpu.Runner { return modeNamed(t, name).new(cfg, core.DefaultParams()) }
		_, wantErr := runAppAt(context.Background(), cfg, app(), runner(), serialCPUs, AppObs{})
		base := runtime.NumGoroutine()
		_, err := runAppAt(context.Background(), cfg, app(), runner(), pipelinedCPUs, AppObs{})
		noGoroutinesAbove(t, base, name)
		if wantErr == nil || err == nil {
			t.Fatalf("%s: serial error %v, pipelined error %v; want workgroup 1's panic", name, wantErr, err)
		}
		line, _, _ := strings.Cut(err.Error(), "\n")
		wantLine, _, _ := strings.Cut(wantErr.Error(), "\n")
		if !strings.HasPrefix(wantLine, "harness: Fault/lds_fault under "+name+": panic: emu: lds_fault") || line != wantLine {
			t.Errorf("%s: pipelined error %q, serial %q", name, line, wantLine)
		}
		if msg := err.Error(); !strings.Contains(msg, "(*pipeline).handOff.func") {
			t.Errorf("%s: the pipelined error does not carry the helper's stack:\n%v", name, err)
		}
	}
}

// A cancelled PageRank run returns the serial prefix and leaves no
// goroutine behind, whether the signal comes before the last launch, which
// runs on a helper, or never.
func TestPipelinedReplayCancelsMidApp(t *testing.T) {
	c := findPipelineCase(t, "PR")
	m := modeNamed(t, BaselineMode)
	want, err := runAt(t, context.Background(), c, m, serialCPUs, AppObs{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(want.res.PerKernel)
	for _, stop := range []int{1, n - 1, n} {
		base := runtime.NumGoroutine()
		got, err := runAt(t, &cancelAfter{Context: context.Background(), n: int32(stop)}, c, m, pipelinedCPUs, AppObs{})
		if stop < n && !errors.Is(err, context.Canceled) || stop == n && err != nil {
			t.Fatalf("stop before %d of %d: err %v", stop, n, err)
		}
		if !reflect.DeepEqual(got.res.PerKernel, want.res.PerKernel[:stop]) {
			t.Errorf("stop before %d: got %d kernels, want the serial prefix of %d", stop, len(got.res.PerKernel), stop)
		}
		if stop == n && got.rows[n-1].Ran != RanHelper {
			t.Errorf("the last launch ran %s, want %s", got.rows[n-1].Ran, RanHelper)
		}
		noGoroutinesAbove(t, base, fmt.Sprintf("stop before %d", stop))
	}
}

// A helper's replay recycles its tape arenas. On verify's small GPU,
// SPMV's one dependent launch has many times the workgroups the CUs hold,
// so the helper's recorder puts each workgroup's arena back on its free
// list and records later workgroups into it again and again; the
// pipelined run still ends with the serial run's rows and image.
func TestPipelinedReplayBoundedPool(t *testing.T) {
	t.Parallel()
	cfg := verify.SmallGPU()
	run := func(cpus int) pipelineRun {
		app, err := workloads.BuildSPMV(512)
		if err != nil {
			t.Fatal(err)
		}
		l := app.Launches[0]
		if n := timing.ResidentWarpSlots(cfg.Compute, l) / l.WarpsPerGroup; l.NumWorkgroups < 3*(n+1) {
			t.Fatalf("%d workgroups, %d resident: the arenas are never reused", l.NumWorkgroups, n)
		}
		r, err := runAppAt(context.Background(), cfg, app, gpu.FullRunner{}, cpus, AppObs{Check: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, got := run(serialCPUs), run(pipelinedCPUs)
	if k := got.rows[0]; k.Ran != RanHelper || k.Image != ImageAdvance {
		t.Fatalf("spmv ran %s, image %s; want %s, %s", k.Ran, k.Image, RanHelper, ImageAdvance)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("pipelined result differs from serial:\n got %+v\nwant %+v", got.res, want.res)
	}
	if !slices.Equal(got.image, want.image) {
		t.Errorf("final images differ first at %#x", firstDiff(got.image, want.image))
	}
}

// The pool counts idle CPUs, not runs in flight. With one of three CPUs
// taken outside the run, as another run in flight takes one, the run still
// spares one and hands ResNet-18's kernels off under the full baseline.
// With one of two taken, it spares none: every row runs inline or
// advances, until the token comes back, as a finished sibling of a sweep
// gives its own, and the launches after that hand off. Either way the run
// gives back the token it took.
func TestCPUsCountIdleNotRuns(t *testing.T) {
	t.Parallel()
	c := findPipelineCase(t, "ResNet-18")
	const back = 12 // the kernels merged before the two-CPU pool gets its token back
	for _, size := range []int{3, 2} {
		pool := engine.NewCPUs(size)
		pool.Take()
		tr, merged := obs.NewTraceBuffer(), 0
		tr.OnEvent(func(ev obs.TraceEvent) {
			if ev.Cat == "kernel" {
				if merged++; merged == back && size == 2 {
					pool.Give()
				}
			}
		})
		app, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunAppInstrumented(context.Background(), gpu.R9Nano(), app, gpu.FullRunner{}, AppObs{Trace: tr, cpus: pool})
		if err != nil {
			t.Fatal(err)
		}
		rows, free := res.PerKernel, size-1
		if size == 2 {
			for _, k := range rows[:back] {
				if k.Ran != RanInline && k.Ran != RanAdvance {
					t.Errorf("pool of 2, one taken: %s ran %s; want %s or %s", k.Name, k.Ran, RanInline, RanAdvance)
				}
			}
			rows, free = rows[back:], size
		}
		if !slices.ContainsFunc(rows, onHelper) {
			t.Errorf("pool of %d with a CPU free: no kernel was handed off", size)
		}
		if n := pool.Free(); n != free {
			t.Errorf("pool of %d: %d tokens free after the run, want %d", size, n, free)
		}
	}
}
