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
	"photon/internal/obs"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/stats"
	"photon/internal/workloads"
)

// AppResult aggregates one application run under one runner.
type AppResult struct {
	Runner     string
	KernelTime event.Time // summed simulated kernel execution time
	Insts      uint64
	Wall       time.Duration
	PerKernel  []KernelRow
	// Decisions is the runner's per-kernel tier ledger, when it keeps one
	// (Photon); nil otherwise. Baseline caches drop it before sharing.
	Decisions []core.TierDecision
}

// KernelRow is one kernel's outcome: the launch name and what the runner
// reported for it.
type KernelRow struct {
	Name string
	gpu.KernelResult
}

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
}

// RunAppInstrumented runs the app with the observability bundle attached.
// The sinks ride on the GPU every RunKernel receives: its memory hierarchy
// and timing machines publish into ao.Metrics and log through ao.Log, and a
// runner that publishes telemetry (Photon) reads them from the GPU. Every
// kernel emits one Chrome trace span onto thread ao.TID of the simulation
// track. The runner's tier ledger, when it keeps one, is returned in
// AppResult.Decisions.
//
// It checks ctx between kernel launches, so a cancelled or deadline-exceeded
// job stops within one kernel of the signal instead of simulating the rest
// of the application. The partial result accumulated so far is returned
// alongside the context error (callers that checkpoint in-flight work keep
// it; everyone else discards).
func RunAppInstrumented(ctx context.Context, cfg gpu.Config, app *workloads.App, runner gpu.Runner, ao AppObs) (AppResult, error) {
	g := gpu.New(cfg)
	if ao.Metrics != nil { // wiring a registry walks every cache; skip it unobserved
		g.SetMetrics(ao.Metrics)
	}
	g.SetLog(ao.Log)
	ao.Trace.NameProcess(simPID, "simulation")
	res := AppResult{Runner: runner.Name()}
	for _, l := range app.Launches {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("harness: %s/%s under %s: %w", app.Name, l.Name, runner.Name(), err)
		}
		start := time.Now()
		r, err := runner.RunKernel(g, l)
		if err == nil && ao.Check {
			err = audit(g, l, r)
		}
		if err != nil {
			return res, fmt.Errorf("harness: %s/%s under %s: %w", app.Name, l.Name, runner.Name(), err)
		}
		ao.Trace.Complete(app.Name+"/"+l.Name, "kernel", simPID, ao.TID, start, r.Wall, map[string]any{
			"runner": runner.Name(), "mode": r.Mode,
			"sim_cycles": r.SimTime, "insts": r.Insts,
		})
		res.KernelTime += r.SimTime
		res.Insts += r.Insts
		res.Wall += r.Wall
		res.PerKernel = append(res.PerKernel, KernelRow{Name: l.Name, KernelResult: r})
	}
	res.Decisions = decisionsOf(runner)
	return res, nil
}

// audit checks the invariants a finished kernel must have left behind.
func audit(g *gpu.GPU, l *kernel.Launch, r gpu.KernelResult) error {
	if err := g.Hierarchy().CheckConservation(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if warps := l.TotalWarps(); r.Insts < uint64(warps) {
		return fmt.Errorf("audit: %d instructions reported for %d warps (each warp executes at least s_endpgm)", r.Insts, warps)
	}
	return nil
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

// Speedup is the wall-time ratio.
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
