package core

import (
	"fmt"
	"log/slog"
	"time"

	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/timing"
)

// Params are Photon's knobs; DefaultParams matches the paper.
type Params struct {
	// SampleFraction of warps functionally simulated by the online analysis
	// (paper: 1%).
	SampleFraction float64
	// StableBBRate is the instruction-weighted fraction of block types that
	// must be stable to enable basic-block-sampling (paper: 95%).
	StableBBRate float64
	// BBWindow is the least-squares window per basic-block type (paper:
	// 2048).
	BBWindow int
	// WarpWindow is the least-squares window over warps (paper: 1024).
	WarpWindow int
	// Delta is the slope/mean threshold (paper: 3%).
	Delta float64
	// DominantWarpShare gates warp-sampling (paper: 95%).
	DominantWarpShare float64
	// KernelBBVDistance is the GPU BBV matching threshold.
	KernelBBVDistance float64
	// RareBlockShare: blocks below this instruction share are "rare" and
	// handled by the interval model instead of gating the switch.
	RareBlockShare float64
	// CheckInterval throttles how often detectors evaluate stability.
	CheckInterval int
	// DefaultMemLatency seeds the interval model's memory latency before
	// any observation exists.
	DefaultMemLatency float64
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		SampleFraction:    0.01,
		StableBBRate:      0.95,
		BBWindow:          2048,
		WarpWindow:        1024,
		Delta:             0.03,
		DominantWarpShare: 0.95,
		KernelBBVDistance: 0.05,
		RareBlockShare:    0.002,
		CheckInterval:     64,
		DefaultMemLatency: 120,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.SampleFraction <= 0 || p.SampleFraction > 1 {
		return fmt.Errorf("core: SampleFraction %v out of (0,1]", p.SampleFraction)
	}
	if p.BBWindow < 2 || p.WarpWindow < 2 || p.CheckInterval < 1 {
		return fmt.Errorf("core: windows and check interval must be positive")
	}
	if p.Delta <= 0 || p.StableBBRate <= 0 || p.DominantWarpShare <= 0 {
		return fmt.Errorf("core: thresholds must be positive")
	}
	return nil
}

// Levels selects which sampling tiers are active; Photon runs all three,
// the Figure 15/17 ablations run subsets.
type Levels struct {
	BB     bool
	Warp   bool
	Kernel bool
}

// AllLevels is full Photon.
func AllLevels() Levels { return Levels{BB: true, Warp: true, Kernel: true} }

// Photon's sampling tiers: the KernelResult.Mode of a kernel each one
// produced, and the Name of a Photon running that tier alone. A kernel no
// tier sampled reports gpu.TierFull.
const (
	TierBB     = "bb-sampling"
	TierWarp   = "warp-sampling"
	TierKernel = "kernel-sampling"
)

// Photon is the sampled-simulation controller; it implements gpu.Runner.
// A Photon instance carries kernel history across launches of one
// application, so create one per application run.
type Photon struct {
	params  Params
	levels  Levels
	history *History
	store   *AnalysisStore // optional offline-analysis cache

	// decisions is the per-kernel tier ledger (see ledger.go); launches
	// numbers kernels within this instance.
	decisions []TierDecision
	launches  int
}

// New creates a Photon runner for the given GPU configuration.
func New(cfg gpu.Config, params Params, levels Levels) (*Photon, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Photon{
		params:  params,
		levels:  levels,
		history: NewHistory(params.KernelBBVDistance, cfg.Compute.NumCUs),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg gpu.Config, params Params, levels Levels) *Photon {
	p, err := New(cfg, params, levels)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements gpu.Runner.
func (p *Photon) Name() string {
	switch p.levels {
	case Levels{BB: true, Warp: true, Kernel: true}:
		return "photon"
	case Levels{BB: true}:
		return TierBB
	case Levels{Warp: true}:
		return TierWarp
	case Levels{Kernel: true}:
		return TierKernel
	default:
		return fmt.Sprintf("photon(bb=%v,warp=%v,kernel=%v)",
			p.levels.BB, p.levels.Warp, p.levels.Kernel)
	}
}

// History exposes the kernel history (tests and the Figure 6 observation
// use it).
func (p *Photon) History() *History { return p.history }

// recordKernel appends the decision to the ledger and publishes the
// per-kernel telemetry into the sinks the GPU carries: which tier produced
// the result and how its instructions split between detailed simulation and
// prediction go to g.Metrics(), and one Debug record of kind "tier" with the
// detector evidence to g.Log() — which a flight ring composed into the logger
// keeps, so a wedged daemon can replay the controller's recent choices.
// Unattached sinks are nil no-ops.
func (p *Photon) recordKernel(g *gpu.GPU, name string, profile *Profile, r gpu.KernelResult, dec TierDecision) {
	dec.Kernel = name
	dec.Index = p.launches
	p.launches++
	dec.Tier = r.Mode
	dec.Insts = r.Insts
	dec.DetailedInsts = r.DetailedInsts
	dec.SampledInsts = profile.SampledInsts
	dec.PredictedCycles = float64(r.SimTime)
	dec.DominantShare = profile.GPU.DominantShare
	p.decisions = append(p.decisions, dec)

	reg := g.Metrics()
	reg.Counter("photon_tier_transitions_total", obs.L("tier", r.Mode)).Inc()
	reg.Counter("photon_insts_detailed_total").Add(r.DetailedInsts)
	if r.Insts > r.DetailedInsts {
		reg.Counter("photon_insts_predicted_total").Add(r.Insts - r.DetailedInsts)
	}
	reg.Counter("photon_insts_sampled_total").Add(profile.SampledInsts)

	if log := g.Log(); log.Enabled(slog.LevelDebug) {
		log.Debug("tier decision: "+dec.Kernel,
			obs.Kind("tier"),
			slog.String("tier", dec.Tier),
			slog.Int("value", dec.Index),
			slog.String("kernel", dec.Kernel),
			slog.Uint64("insts", dec.Insts),
			slog.Uint64("detailed_insts", dec.DetailedInsts),
			slog.Float64("predicted_cycles", dec.PredictedCycles),
			slog.Float64("bb_stable_share", dec.BBStableShare),
			slog.Float64("dominant_share", dec.DominantShare))
	}
}

// RunKernel implements gpu.Runner: the full Photon flow for one kernel.
func (p *Photon) RunKernel(g *gpu.GPU, l *kernel.Launch) (gpu.KernelResult, error) {
	start := time.Now()
	shape := MachineShape{
		NumCUs:        g.Config().Compute.NumCUs,
		WarpSlotsPer:  g.Config().Compute.WarpSlotsPerCU(),
		WarpsPerGroup: l.WarpsPerGroup,
	}

	// Step 1 (all levels): online analysis over a sample of warps (served
	// from the offline store when one is attached and warm).
	profile, err := p.analyze(l)
	if err != nil {
		return gpu.KernelResult{}, err
	}

	// Kernel-sampling: when a prior kernel with a matching GPU BBV exists,
	// run this kernel in fast-forward (functional) mode only — keeping the
	// memory image correct for later kernels whose control flow may depend
	// on its outputs — and borrow the prior kernel's IPC for timing. The
	// instruction count is exact: the fast-forward counts it.
	if p.levels.Kernel {
		if rec, ok := p.history.Match(profile.GPU, l.TotalWarps(), profile.MeanWarpInsts); ok && rec.IPC() > 0 {
			insts, err := emu.RunKernelFunctional(l)
			if err != nil {
				return gpu.KernelResult{}, fmt.Errorf("core: kernel-sampling fast-forward: %w", err)
			}
			simTime := float64(insts) / rec.IPC()
			p.history.Add(KernelRecord{
				Name:    l.Name,
				GPU:     profile.GPU,
				Warps:   l.TotalWarps(),
				Insts:   float64(insts),
				SimTime: simTime,
			})
			result := gpu.KernelResult{
				SimTime: EventTime(simTime),
				Insts:   insts,
				Mode:    TierKernel,
				Wall:    time.Since(start),
			}
			p.recordKernel(g, l.Name, profile, result, TierDecision{KernelMatch: true})
			return result, nil
		}
	}

	// Detailed simulation with the per-level detectors attached. Switching
	// is allowed only after one full machine generation retired (every
	// initially-resident warp slot turned over), so the recorded means are
	// not dominated by the cold-start transient.
	minRetires := g.Config().Compute.NumCUs * g.Config().Compute.WarpSlotsPerCU()
	var bbT *bbTracker
	if p.levels.BB {
		bbT = newBBTracker(profile, p.params, minRetires)
		bbT.setMetrics(g.Metrics())
	}
	var wT *warpTracker
	if p.levels.Warp && profile.GPU.DominantShare >= p.params.DominantWarpShare {
		wT = newWarpTracker(p.params, minRetires)
		wT.setMetrics(g.Metrics())
	}
	gate := func() bool {
		return (wT != nil && wT.triggered) || (bbT != nil && bbT.triggered)
	}
	res, err := g.RunDetailed(l, trackerObserver(bbT, wT), gate)
	if err != nil {
		return gpu.KernelResult{}, err
	}

	result := gpu.KernelResult{
		DetailedInsts: res.InstCount,
	}
	switch {
	case res.Complete:
		result.Mode = gpu.TierFull
		result.SimTime = res.EndTime
		result.Insts = res.InstCount

	case wT != nil && wT.triggered:
		// Warp-sampling (Figure 10, step 3): simulate only the scheduler;
		// every remaining warp takes the window's mean duration, and none of
		// them executes.
		result.Mode, result.Stale = TierWarp, true
		remainingGroups := l.NumWorkgroups - res.NextWG
		end := UniformMakespan(float64(res.GateTime), float64(res.EndTime),
			wT.meanWarpTime(), remainingGroups, shape)
		result.SimTime = EventTime(end)
		skippedWarps := float64(remainingGroups * l.WarpsPerGroup)
		result.Insts = res.InstCount + uint64(skippedWarps*profile.MeanWarpInsts)

	case bbT != nil && bbT.triggered:
		// Basic-block-sampling (Figure 7, step 3): functionally simulate
		// the remaining warps and accumulate their blocks' predicted times.
		result.Mode = TierBB
		lm := NewLatencyModel(res, g.Config().Compute, p.params.DefaultMemLatency)
		durations := make([]float64, 0, l.NumWorkgroups-res.NextWG)
		insts := res.InstCount
		var grp emu.Group
		err := grp.RunRange(l, res.NextWG, l.NumWorkgroups-res.NextWG, func(warps []*emu.Warp) {
			groupDur := 0.0
			for _, w := range warps {
				insts += w.InstCount()
				d := bbT.predictWarpTime(w.BBCounts(), lm, l.Program, g.Config().Compute)
				if d > groupDur {
					groupDur = d
				}
			}
			durations = append(durations, groupDur)
		})
		if err != nil {
			return gpu.KernelResult{}, fmt.Errorf("core: bb-sampling fast-forward: %w", err)
		}
		end := PredictMakespan(float64(res.GateTime), float64(res.EndTime), durations, shape)
		result.SimTime = EventTime(end)
		result.Insts = insts

	default:
		// The gate never fired and the run is incomplete — impossible by
		// construction, but fall back to reporting the detailed portion.
		result.Mode = gpu.TierFull
		result.SimTime = res.EndTime
		result.Insts = res.InstCount
	}

	p.history.Add(KernelRecord{
		Name:    l.Name,
		GPU:     profile.GPU,
		Warps:   l.TotalWarps(),
		Insts:   float64(result.Insts),
		SimTime: float64(result.SimTime),
	})
	result.Wall = time.Since(start)
	dec := TierDecision{
		GateCycles:    float64(res.GateTime),
		BBStableShare: bbT.stableShare(),
	}
	dec.WarpSlope, dec.WarpSlopeOK = wT.slope()
	p.recordKernel(g, l.Name, profile, result, dec)
	return result, nil
}

// trackerObserver subscribes the armed trackers (either may be nil) to block
// intervals and warp retirements: neither listens per instruction.
func trackerObserver(bb *bbTracker, warp *warpTracker) timing.Observer {
	var o timing.Observer
	switch {
	case bb != nil && warp != nil:
		o.BlockRetired = bb.OnBlockRetired
		o.WarpRetired = func(now event.Time, w *emu.Warp, issue event.Time) {
			bb.OnWarpRetired(now, w, issue)
			warp.OnWarpRetired(now, w, issue)
		}
	case bb != nil:
		o.BlockRetired, o.WarpRetired = bb.OnBlockRetired, bb.OnWarpRetired
	case warp != nil:
		o.WarpRetired = warp.OnWarpRetired
	}
	return o
}

// EventTime converts a float cycle count to the event clock type, rounding
// to nearest.
func EventTime(v float64) event.Time {
	if v < 0 {
		return 0
	}
	return event.Time(v + 0.5)
}
