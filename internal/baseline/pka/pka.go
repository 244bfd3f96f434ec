// Package pka reimplements Principal Kernel Analysis (Baddouh et al.,
// MICRO 2021) as the comparison baseline, following the description in the
// Photon paper's evaluation: PKA monitors the GPU's IPC over a trailing
// cycle window and, once the IPC is stable (variance below the threshold
// s = 0.25 over the last 3000 cycles), stops detailed simulation and
// extrapolates the rest of the kernel at the stable IPC. At the kernel
// level, PKA groups kernel invocations by hand-picked features (kernel name
// and instruction-count/warp-count profile) and reuses a group
// representative's time.
package pka

import (
	"fmt"
	"math"

	"photon/internal/core"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/timing"
)

// Params configures the baseline.
type Params struct {
	// S is the IPC stability threshold (default 0.25). Stability is judged
	// by the squared coefficient of variation of per-bin IPC over the
	// trailing window, a normalized form of the variance test.
	S float64
	// WindowCycles is the trailing window (paper: 3000 cycles).
	WindowCycles event.Time
	// BinCycles is the IPC sampling granularity within the window.
	BinCycles event.Time
	// MinCycles prevents declaring stability during the ramp-up.
	MinCycles event.Time
	// SampleFraction is the functional sample used to estimate total
	// instructions for extrapolation (PKA obtains this from profiling
	// counters; we grant it the same 1% online sample Photon uses).
	SampleFraction float64
}

// DefaultParams matches the paper's PKA configuration.
func DefaultParams() Params {
	return Params{
		S:              0.25,
		WindowCycles:   3000,
		BinCycles:      100,
		MinCycles:      6000,
		SampleFraction: 0.01,
	}
}

// ipcMonitor bins instruction issues per BinCycles and tests IPC stability
// over the trailing window.
type ipcMonitor struct {
	p         Params
	bins      []float64
	evalBin   int
	triggered bool
	stableIPC float64
	trigTime  event.Time
}

func (m *ipcMonitor) OnInstIssued(now event.Time, cuID int, w *emu.Warp, class isa.FUClass, lat event.Time) {
	idx := int(now / m.p.BinCycles)
	for idx >= len(m.bins) {
		m.bins = append(m.bins, 0)
	}
	m.bins[idx]++
	if m.triggered || now < m.p.MinCycles {
		return
	}
	// Evaluate once per completed bin.
	if idx > m.evalBin {
		m.evalBin = idx
		m.evaluate(now)
	}
}

func (m *ipcMonitor) evaluate(now event.Time) {
	nBins := int(m.p.WindowCycles / m.p.BinCycles)
	last := int(now/m.p.BinCycles) - 1 // exclude the partially-filled bin
	if last+1 < nBins {
		return
	}
	var sum, sumSq float64
	for i := last + 1 - nBins; i <= last; i++ {
		v := m.bins[i] / float64(m.p.BinCycles)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(nBins)
	if mean == 0 {
		return
	}
	variance := sumSq/float64(nBins) - mean*mean
	if variance/(mean*mean) < m.p.S {
		m.triggered = true
		m.stableIPC = mean
		m.trigTime = now
	}
}

// kernelKey is PKA's hand-picked kernel-clustering feature set: the kernel
// name plus its warp count and the order of magnitude of its per-warp
// instruction count. (The Photon paper's Observation 5 argues exactly this
// kind of feature counting can mis-cluster.)
type kernelKey struct {
	name       string
	warps      int
	instBucket int
}

type kernelEntry struct {
	simTime event.Time
	insts   uint64
}

// Runner is the PKA baseline; it implements gpu.Runner.
type Runner struct {
	params  Params
	history map[kernelKey]kernelEntry
}

// New creates a PKA runner.
func New(params Params) *Runner {
	return &Runner{params: params, history: make(map[kernelKey]kernelEntry)}
}

// Name implements gpu.Runner.
func (r *Runner) Name() string { return "pka" }

// PKA's tiers. Both kernel-level reuse and IPC extrapolation predict
// workgroups the runner never executes, so their results are stale.
const (
	TierFull    = "pka-full"
	TierKernel  = "pka-kernel"
	TierSampled = "pka-sampled"
)

func bucket(v float64) int {
	if v <= 0 {
		return 0
	}
	return int(math.Round(math.Log2(v) * 4)) // quarter-octave buckets
}

// Plan implements gpu.Runner. PKA's kernel-level reuse reads and writes
// the runner's history, so its plans never overlap.
func (r *Runner) Plan(*gpu.GPU, *kernel.Launch) (*gpu.Plan, error) {
	return &gpu.Plan{Execute: r.execute}, nil
}

func (r *Runner) execute(g *gpu.GPU, l *kernel.Launch) (gpu.KernelResult, error) {
	// Instruction-count estimate from a functional sample (stands in for
	// PKA's profiling counters).
	profile, err := core.AnalyzeOnline(l, r.params.SampleFraction)
	if err != nil {
		return gpu.KernelResult{}, err
	}
	totalInsts := profile.MeanWarpInsts * float64(l.TotalWarps())

	key := kernelKey{name: l.Name, warps: l.TotalWarps(), instBucket: bucket(profile.MeanWarpInsts)}
	if prev, ok := r.history[key]; ok {
		return gpu.KernelResult{
			SimTime: prev.simTime,
			Insts:   prev.insts,
			Mode:    TierKernel,
			Stale:   true,
		}, nil
	}

	mon := &ipcMonitor{p: r.params}
	res, err := g.RunDetailed(l, timing.Observer{InstIssued: mon.OnInstIssued}, func() bool { return mon.triggered })
	if err != nil {
		return gpu.KernelResult{}, err
	}

	var result gpu.KernelResult
	switch {
	case res.Complete:
		result = gpu.Complete(res, TierFull)
	case mon.triggered:
		// Extrapolate the remaining instructions at the stable IPC,
		// counting from the moment the monitor fired (the detailed model
		// drains in-flight workgroups past that point; PKA's model charges
		// the remainder at the stable rate).
		remaining := max(totalInsts-float64(res.InstCount), 0)
		result = gpu.KernelResult{
			SimTime:       res.EndTime + event.Time(remaining/mon.stableIPC),
			Insts:         uint64(totalInsts),
			DetailedInsts: res.InstCount,
			Mode:          TierSampled,
			Stale:         true,
		}
	default:
		// The gate stops dispatch only once the monitor has triggered.
		return gpu.KernelResult{}, fmt.Errorf("pka: %s: detailed run stopped at workgroup %d with no monitor triggered", l.Name, res.NextWG)
	}
	r.history[key] = kernelEntry{simTime: result.SimTime, insts: result.Insts}
	return result, nil
}

var _ gpu.Runner = (*Runner)(nil)

// String describes the configuration.
func (r *Runner) String() string {
	return fmt.Sprintf("pka(s=%.2f, window=%d)", r.params.S, r.params.WindowCycles)
}
