package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"photon/internal/core"
	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/stats"
)

// Simulation modes of one app run.
const (
	modeDetailed   = "detailed"
	modePhoton     = "photon"
	modeFunctional = "functional"
)

// simRun is one (app, mode) simulation as seen from outside the harness.
type simRun struct {
	res     harness.AppResult
	wall    float64 // s, around the harness call only
	build   float64 // s, building the app
	allocMB float64 // TotalAlloc delta of the call (traced runs only)
	warps   int     // the app's stated size
	err     error   // run or output-check failure
}

// simRep is one repetition of the simulation phase: every app of the
// workload under both the detailed and the Photon runner.
type simRep struct {
	detailed, photon []simRun // indexed like def.Apps
}

func sumWall(rs []simRun) float64 {
	t := 0.0
	for _, r := range rs {
		t += r.wall
	}
	return t
}

func sumBuild(rs []simRun) float64 {
	t := 0.0
	for _, r := range rs {
		t += r.build
	}
	return t
}

func sumInsts(rs []simRun) uint64 {
	var t uint64
	for _, r := range rs {
		t += r.res.Insts
	}
	return t
}

func sumCycles(rs []simRun) int64 {
	var t int64
	for _, r := range rs {
		t += int64(r.res.KernelTime)
	}
	return t
}

// simulate builds a fresh app and runs it once under mode on the R9 Nano
// model. reg and lanes attach telemetry or the laned engine to a detailed
// run; both zero gives the plain harness.RunApp call the end-to-end metrics
// time. Heap is collected before the timer starts so a run pays for its own
// garbage only.
func (b *bench) simulate(parent int, a appSpec, mode string, reg *obs.Registry, lanes int) simRun {
	var run simRun
	cfg := gpu.R9Nano()

	sp := b.tr.begin(parent, "workloads.build", a.Name)
	t0 := time.Now()
	app, err := a.Build()
	run.build = time.Since(t0).Seconds()
	b.tr.end(sp)
	if err != nil {
		run.err = fmt.Errorf("%s: build: %w", a.Name, err)
		return run
	}

	run.warps = app.TotalWarps()

	var runner gpu.Runner
	switch mode {
	case modeDetailed:
		runner = gpu.FullRunner{}
	case modePhoton:
		runner = core.MustNew(cfg, harness.DefaultOptions().Params, core.AllLevels())
	case modeFunctional:
		runner = gpu.FunctionalRunner{}
	}

	runtime.GC()
	var before runtime.MemStats
	if b.tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp = b.tr.begin(parent, "harness.RunApp."+mode, a.Name)
	t0 = time.Now()
	if reg != nil || lanes != 0 {
		run.res, err = harness.RunAppInstrumented(context.Background(), cfg, app, runner,
			harness.AppObs{Metrics: reg, Lanes: lanes})
	} else {
		run.res, err = harness.RunApp(cfg, app, runner)
	}
	run.wall = time.Since(t0).Seconds()
	b.tr.end(sp)
	if b.tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		run.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		b.peakHeap = max(b.peakHeap, after.HeapInuse)
	}
	if err != nil {
		run.err = fmt.Errorf("%s under %s: %w", a.Name, mode, err)
		return run
	}

	// Warp-sampling predicts the skipped warps instead of executing them, and
	// Photon re-executes a sample of a non-idempotent kernel: only runs that
	// executed every warp exactly once leave a checkable memory image.
	checkable := !warpSampled(run.res) && !(a.Atomics && mode == modePhoton)
	if app.Check != nil && checkable {
		sp = b.tr.begin(parent, "workloads.check", a.Name)
		if err := app.Check(); err != nil {
			run.err = fmt.Errorf("%s under %s: output check: %w", a.Name, mode, err)
		}
		b.tr.end(sp)
	}
	return run
}

// sampleYard takes n yardstick readings in an untraced run; traced runs
// report raw per-layer numbers and skip it.
func (b *bench) sampleYard(dst *[]float64, n int) {
	if b.tr != nil {
		return
	}
	for i := 0; i < n; i++ {
		*dst = append(*dst, yardstick())
	}
	b.lastYard = time.Now()
}

func warpSampled(r harness.AppResult) bool {
	for _, k := range r.PerKernel {
		if k.Mode == "warp-sampling" {
			return true
		}
	}
	return false
}

// runSimRep runs every app under both modes, apps and modes interleaved and
// their order flipped on odd reps so neither mode always runs on the heap
// and caches the other left behind. first is rep 0 (nil while running it):
// the simulator is deterministic, so later reps must reproduce its counts.
func (b *bench) runSimRep(parent, rep int, first *simRep) simRep {
	n := len(b.def.Apps)
	r := simRep{detailed: make([]simRun, n), photon: make([]simRun, n)}
	sp := b.tr.begin(parent, "sim.rep", fmt.Sprint(rep))
	defer b.tr.end(sp)
	for k := 0; k < n; k++ {
		i := k
		modes := [2]string{modeDetailed, modePhoton}
		if rep%2 == 1 {
			i = n - 1 - k
			modes = [2]string{modePhoton, modeDetailed}
		}
		for _, m := range modes {
			// One reading per simulation, but no more than two a second:
			// the tiny served cells would otherwise spend more time on the
			// yardstick than on themselves.
			if time.Since(b.lastYard) >= yardEvery {
				b.sampleYard(&b.yardSim, 1)
			}
			run := b.simulate(sp, b.def.Apps[i], m, nil, 0)
			if m == modeDetailed {
				r.detailed[i] = run
			} else {
				r.photon[i] = run
			}
		}
	}
	for i, a := range b.def.Apps {
		d, p := r.detailed[i], r.photon[i]
		if d.err == nil && first != nil && d.res.KernelTime != first.detailed[i].res.KernelTime {
			d.err = fmt.Errorf("%s rep %d: detailed sim cycles %d, rep 0 had %d",
				a.Name, rep, d.res.KernelTime, first.detailed[i].res.KernelTime)
		}
		if p.err == nil && d.err == nil && p.res.Insts != d.res.Insts {
			p.err = fmt.Errorf("%s rep %d: photon counted %d instructions, detailed %d",
				a.Name, rep, p.res.Insts, d.res.Insts)
		}
		if p.err == nil && first != nil && p.res.KernelTime != first.photon[i].res.KernelTime {
			p.err = fmt.Errorf("%s rep %d: photon sim cycles %d, rep 0 had %d",
				a.Name, rep, p.res.KernelTime, first.photon[i].res.KernelTime)
		}
		b.op(d.err)
		b.op(p.err)
	}
	return r
}

// errPct is the paper's accuracy metric for the workload: the mean over apps
// of |photon − detailed| summed-kernel sim cycles over detailed.
func errPct(r simRep) float64 {
	sum := 0.0
	for i := range r.detailed {
		sum += harness.Comparison{Full: r.detailed[i].res, Sampled: r.photon[i].res}.ErrPct()
	}
	return sum / float64(len(r.detailed))
}

// maxKernelErrPct is the worst single kernel's cycle error.
func maxKernelErrPct(r simRep) float64 {
	worst := 0.0
	for i := range r.detailed {
		full, ph := r.detailed[i].res.PerKernel, r.photon[i].res.PerKernel
		for k := 0; k < len(full) && k < len(ph); k++ {
			worst = math.Max(worst, stats.AbsErrorPct(float64(full[k].SimTime), float64(ph[k].SimTime)))
		}
	}
	return worst
}

// simEndToEnd folds the reps into the simulation end-to-end metrics.
func simEndToEnd(reps []simRep, out map[string]sample) {
	var det, ph []float64
	for _, r := range reps {
		det = append(det, sumWall(r.detailed))
		ph = append(ph, sumWall(r.photon))
	}
	out["detailed_wall_s"] = summarize(det)
	out["photon_wall_s"] = summarize(ph)
	out["photon_accuracy_pct"] = single(100 - errPct(reps[0]))
}
