// Package tbpoint reconstructs the gist of TBPoint (Huang et al., IPDPS
// 2014), the other intra-kernel sampling baseline the Photon paper discusses
// alongside PKA: simulate a fixed fraction of a kernel's thread blocks
// (workgroups) in detail and extrapolate the remainder, assuming the
// sampled blocks' performance is representative. Unlike Photon there is no
// online stability detection — the sample size is fixed up front — which is
// exactly the behavior the paper's Observations 2-4 argue against.
package tbpoint

import (
	"time"

	"photon/internal/core"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/timing"
)

// Params configures the baseline.
type Params struct {
	// Fraction of workgroups simulated in detail (default 10%).
	Fraction float64
	// MinGroups floors the detailed sample.
	MinGroups int
	// SampleFraction is the functional sample used for instruction-count
	// estimation, as for the other runners.
	SampleFraction float64
}

// DefaultParams returns the standard configuration.
func DefaultParams() Params {
	return Params{Fraction: 0.10, MinGroups: 64, SampleFraction: 0.01}
}

// Runner implements gpu.Runner.
type Runner struct {
	params Params
}

// New creates a TBPoint-style runner.
func New(params Params) *Runner { return &Runner{params: params} }

// Name implements gpu.Runner.
func (r *Runner) Name() string { return "tbpoint" }

// TBPoint's tiers. A sampled kernel's remaining workgroups are extrapolated,
// not executed, so its result is stale.
const (
	TierFull    = "tbpoint-full"
	TierSampled = "tbpoint-sampled"
)

// groupTimer records per-workgroup durations during the detailed phase.
type groupTimer struct {
	wpg      int
	issues   map[int]event.Time // group id -> first warp issue
	finishes map[int]event.Time // group id -> last warp retire
	left     map[int]int        // warps still running per group
}

func newGroupTimer(wpg int) *groupTimer {
	return &groupTimer{
		wpg:      wpg,
		issues:   make(map[int]event.Time),
		finishes: make(map[int]event.Time),
		left:     make(map[int]int),
	}
}

func (g *groupTimer) OnWarpStart(now event.Time, w *emu.Warp) {
	if _, ok := g.issues[w.GroupID]; !ok {
		g.issues[w.GroupID] = now
		g.left[w.GroupID] = g.wpg
	}
}

func (g *groupTimer) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	g.left[w.GroupID]--
	if g.left[w.GroupID] == 0 {
		g.finishes[w.GroupID] = now
	}
}

// meanGroupDuration averages completed groups' wall durations.
func (g *groupTimer) meanGroupDuration() float64 {
	sum, n := 0.0, 0
	for id, end := range g.finishes {
		sum += float64(end - g.issues[id])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunKernel implements gpu.Runner.
func (r *Runner) RunKernel(g *gpu.GPU, l *kernel.Launch) (gpu.KernelResult, error) {
	start := time.Now()
	profile, err := core.AnalyzeOnline(l, r.params.SampleFraction)
	if err != nil {
		return gpu.KernelResult{}, err
	}
	shape := core.MachineShape{
		NumCUs:        g.Config().Compute.NumCUs,
		WarpSlotsPer:  g.Config().Compute.WarpSlotsPerCU(),
		WarpsPerGroup: l.WarpsPerGroup,
	}
	sampleGroups := int(float64(l.NumWorkgroups)*r.params.Fraction + 0.5)
	if sampleGroups < r.params.MinGroups {
		sampleGroups = r.params.MinGroups
	}
	// Sampling fewer groups than the machine holds would profile the kernel
	// at artificially low occupancy; take at least two full generations.
	if floor := 2 * shape.GroupServers(); sampleGroups < floor {
		sampleGroups = floor
	}

	timer := newGroupTimer(l.WarpsPerGroup)
	dispatched := 0
	obs := timing.Observer{WarpStart: timer.OnWarpStart, WarpRetired: timer.OnWarpRetired}
	res, err := g.RunDetailed(l, obs, func() bool {
		dispatched++
		return dispatched > sampleGroups
	})
	if err != nil {
		return gpu.KernelResult{}, err
	}
	result := gpu.KernelResult{DetailedInsts: res.InstCount}
	if res.Complete {
		result.Mode = TierFull
		result.SimTime = res.EndTime
		result.Insts = res.InstCount
	} else {
		result.Mode, result.Stale = TierSampled, true
		remaining := l.NumWorkgroups - res.NextWG
		end := core.UniformMakespan(float64(res.GateTime), float64(res.EndTime),
			timer.meanGroupDuration(), remaining, shape)
		result.SimTime = core.EventTime(end)
		skipped := float64(remaining*l.WarpsPerGroup) * profile.MeanWarpInsts
		result.Insts = res.InstCount + uint64(skipped)
	}
	result.Wall = time.Since(start)
	return result, nil
}

var _ gpu.Runner = (*Runner)(nil)
