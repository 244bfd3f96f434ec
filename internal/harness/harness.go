// Package harness runs the paper's experiments: it sweeps benchmarks,
// problem sizes and simulation methodologies, compares every sampled run
// against the full-detailed baseline, and prints the rows behind each table
// and figure of the evaluation (Section 6).
package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"photon/internal/core"
	"photon/internal/harness/engine"
	"photon/internal/obs"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/stats"
	"photon/internal/workloads"
)

// AppResult aggregates one application run under one runner.
type AppResult struct {
	Runner     string
	KernelTime event.Time // summed simulated kernel execution time
	Insts      uint64
	// Wall is the run's elapsed host time; the rows' walls sum to more
	// exactly when kernels overlapped.
	Wall      time.Duration
	PerKernel []KernelRow
	// Decisions is the runner's per-kernel tier ledger, when it keeps one
	// (Photon); nil otherwise. Baseline caches drop it before sharing.
	Decisions []core.TierDecision
}

// KernelRow is one kernel's outcome: the launch name, how the run loop ran
// it, which it alone records (DESIGN.md "Kernel-level parallelism"), and
// what the runner reported for it.
type KernelRow struct {
	Name  string
	Ran   Ran
	Image Image
	// admitted is set when mayHandOff admitted the launch, whether or not
	// its run could spare a CPU: the launches a serial run admits are the
	// ones its pipelined run hands off.
	admitted bool
	gpu.KernelResult
}

// Ran says where the run loop ran a kernel's Execute. A serial run's
// kernels run inline or advance.
type Ran string

const (
	RanInline          Ran = "inline"            // on the live image
	RanTimedBesidePass Ran = "timed-beside-pass" // timing-only over no image, beside its functional pass
	RanHelper          Ran = "helper"            // on a helper, over a fork of the image at launch
	RanHelperTimed     Ran = "helper-timed"      // on a helper, timing-only over no image
	RanAdvance         Ran = "advance"           // nowhere: the plan has no Execute
)

// Image says which run left a kernel's memory image. A serial run's
// kernels leave the live or the advance's.
type Image string

const (
	ImageLive    Image = "live"    // Execute, on the live image
	ImagePass    Image = "pass"    // the functional pass, whose fork the live image adopted
	ImageReplay  Image = "replay"  // a functional run of the prefix's workgroups [0, NextWG) on the live image
	ImageAdvance Image = "advance" // the functional advance of the whole kernel on the live image
)

// RunApp executes every launch of the app under the runner on a fresh GPU.
func RunApp(cfg gpu.Config, app *workloads.App, runner gpu.Runner) (AppResult, error) {
	return RunAppInstrumented(context.Background(), cfg, app, runner, AppObs{})
}

// simPID is the trace-event process id under which per-kernel simulation
// spans are grouped (harness-engine jobs use their own pid).
const simPID = 2

// AppObs bundles the observability sinks one application run publishes
// into; the zero value runs unobserved.
type AppObs struct {
	Metrics *obs.Registry
	Trace   *obs.TraceBuffer
	Log     *obs.Logger
	// TID is the trace-span thread id for this run (callers running apps
	// concurrently pass distinct tids so spans do not overlap).
	TID int
	// Check audits simulator invariants after every kernel (the CLIs'
	// -check): the memory hierarchy's conservation equations must hold and
	// the result must report at least one instruction per warp (every warp
	// executes s_endpgm). Both read state the run left behind, so the audit
	// re-executes nothing; a violation is that kernel's error.
	Check bool
	// Lanes is ignored. It survives only because benchmark/sim.go, frozen
	// outside benchmark PRs, still sets it; the benchmark PR that retires
	// that probe removes this field with it.
	Lanes int
	// cpus is the run's pool of CPUs; nil is the process's, engine.Procs.
	cpus *engine.CPUs
}

// RunAppInstrumented runs the app with the observability bundle attached.
// The sinks ride on the GPU every plan receives: its memory hierarchy
// and timing machines publish into ao.Metrics and log through ao.Log, and a
// runner that publishes telemetry (Photon) reads them from the GPU. Every
// kernel emits one Chrome trace span onto thread ao.TID of the simulation
// track, or its GPU's own thread when a helper ran it. The run loop stamps
// every kernel's Wall and the run's elapsed Wall. The runner's tier ledger,
// when it keeps one, is returned in AppResult.Decisions.
//
// With a runner that plans its kernels (the full-detailed runner and
// Photon), the detailed runs of the kernels whose plans allow it may overlap
// on helper goroutines (DESIGN.md "Kernel-level parallelism"); plans commit,
// and results, spans and audits merge, in kernel order, so the result equals
// a serial run's but for wall times and span threads.
//
// It checks ctx between kernel launches, so a cancelled or deadline-exceeded
// job stops within one kernel of the signal instead of simulating the rest
// of the application. The in-order prefix of the kernels finished so far is
// returned alongside the context error (callers that checkpoint in-flight
// work keep it; everyone else discards).
func RunAppInstrumented(ctx context.Context, cfg gpu.Config, app *workloads.App, runner gpu.Runner, ao AppObs) (res AppResult, err error) {
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()
	if ao.cpus == nil {
		ao.cpus = engine.Procs
	}
	ao.cpus.Take()
	defer ao.cpus.Give()
	ao.Trace.NameProcess(simPID, "simulation")
	p := newPipeline(cfg, app, runner, ao)
	defer p.wait()
	for _, l := range app.Launches {
		if err := ctx.Err(); err != nil {
			return p.res, p.failAt(l, err)
		}
		if err := p.step(l); err != nil {
			return p.res, err
		}
	}
	if err := p.mergeAll(); err != nil { // the last launch may queue behind helpers
		return p.res, err
	}
	p.res.Decisions = decisionsOf(runner)
	return p.res, nil
}

// StaleKernel returns the first kernel whose runner reported it Stale: it
// predicted workgroups without executing them, leaving their outputs missing
// from the memory image (DESIGN.md "Memory contract per tier"). The app's
// functional Check only applies to a run that has none.
func (r AppResult) StaleKernel() (KernelRow, bool) {
	for _, k := range r.PerKernel {
		if k.Stale {
			return k, true
		}
	}
	return KernelRow{}, false
}

// FinalizeMetrics derives run-level summary gauges — per-level cache hit
// rates — from the registry's raw counters. Call it once, after all
// simulation finished and before writing the snapshot.
func FinalizeMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	for _, level := range []string{"L1V", "L1I", "L1K", "L2"} {
		l := obs.L("level", level)
		hits := snap.SumCounters("sim_cache_hits_total", l)
		misses := snap.SumCounters("sim_cache_misses_total", l)
		if hits+misses == 0 {
			continue
		}
		reg.Gauge("sim_cache_hit_rate", l).Set(float64(hits) / float64(hits+misses))
	}
}

// WriteTelemetry is the run-end epilogue photon-sim and photon-bench share:
// derive the summary gauges and write the -metrics-out snapshot, then warn on
// stderr (as prog) if the trace buffer dropped events and write the
// -trace-out event file. A nil sink skips its half. traceWord is how the CLI
// names the trace artifact in its messages; the returned error is ready to
// print after the program name.
func WriteTelemetry(stderr io.Writer, prog, traceWord string, reg *obs.Registry, metricsOut string, tr *obs.TraceBuffer, traceOut string) error {
	if reg != nil {
		FinalizeMetrics(reg)
		if err := reg.WriteFile(metricsOut); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if tr != nil {
		if n := tr.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "%s: warning: %d %s events dropped (buffer full)\n", prog, n, traceWord)
		}
		if err := tr.WriteFile(traceOut); err != nil {
			return fmt.Errorf("writing %s: %w", traceWord, err)
		}
	}
	return nil
}

// RunnerFactory builds a fresh runner per application (Photon and PKA carry
// per-application kernel history). A sweep labels the runner's rows with its
// own Name(), or with Label when the figure relabels a variant.
type RunnerFactory struct {
	Label string
	New   func(cfg gpu.Config) gpu.Runner
}

// PhotonFactory builds Photon with the given levels under a figure's own
// label (Fig. 17's "kernel+warp"); a methodology of the mode table needs no
// label.
func PhotonFactory(label string, params core.Params, levels core.Levels) RunnerFactory {
	return RunnerFactory{Label: label, New: func(cfg gpu.Config) gpu.Runner {
		return core.MustNew(cfg, params, levels)
	}}
}

// Comparison is one (benchmark, size, runner) measurement against full mode.
type Comparison struct {
	Bench   string
	Size    int
	Runner  string
	Full    AppResult
	Sampled AppResult
}

// ErrPct is the paper's accuracy metric over summed kernel time.
func (c Comparison) ErrPct() float64 {
	return stats.AbsErrorPct(float64(c.Full.KernelTime), float64(c.Sampled.KernelTime))
}

// Speedup is the ratio of the two runs' elapsed wall times (AppResult.Wall).
func (c Comparison) Speedup() float64 {
	return stats.Speedup(c.Full.Wall, c.Sampled.Wall)
}

// PrintHeader writes the standard row header.
func PrintHeader(w io.Writer) {
	fmt.Fprintf(w, "%-10s %8s %-14s %14s %14s %8s %9s %9s\n",
		"bench", "size", "runner", "kernel_cycles", "full_cycles", "err%", "wall_ms", "speedup")
}

// PrintRow writes one comparison row.
func PrintRow(w io.Writer, c Comparison) {
	fmt.Fprintf(w, "%-10s %8d %-14s %14d %14d %8.2f %9.1f %9.2f\n",
		c.Bench, c.Size, c.Runner,
		c.Sampled.KernelTime, c.Full.KernelTime,
		c.ErrPct(), float64(c.Sampled.Wall.Microseconds())/1000, c.Speedup())
}
