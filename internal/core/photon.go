package core

import (
	"fmt"
	"log/slog"

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
// application, so create one per application run. Its plans are made, and
// committed, in launch order on one goroutine; only a plan's Execute may run
// on another.
type Photon struct {
	params  Params
	levels  Levels
	history *History
	store   *AnalysisStore // optional offline-analysis cache

	// decisions is the per-kernel tier ledger (see ledger.go), one entry
	// per launch, so its length numbers the next kernel.
	decisions []TierDecision
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
	dec.Index = len(p.decisions)
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

// Plan implements gpu.Runner: the full Photon flow for one kernel. It runs
// the online analysis and the History match, then appends the kernel's
// pending record: its shape now, its Insts from the functional advance or
// the commit, its SimTime at the commit.
//
// A matched kernel needs no Execute. An unmatched one runs detailed with the
// trackers armed, and its plan may overlap its neighbours when no tracker
// can stop dispatch: none is armed, or the machine has dispatched every
// workgroup by the earliest poll at which a gate may fire
// (canStopDispatch). Such a kernel ends full, its image is the functional
// one and its Insts are exact. A kernel that can end bb-sampling with
// workgroups left asks for a gpu.Pass: when the run loop starts it, the
// workgroups after the gate are read from the pass instead of run after
// the prefix. Warp-sampling alone asks for none: it would drop the pass.
func (p *Photon) Plan(g *gpu.GPU, l *kernel.Launch) (*gpu.Plan, error) {
	// Step 1 (all levels): online analysis over a sample of warps (served
	// from the offline store when one is attached and warm).
	profile, err := p.analyze(l)
	if err != nil {
		return nil, err
	}
	k := &kernelPlan{p: p, g: g, name: l.Name, profile: profile, rec: p.history.Len()}
	matched := false
	if p.levels.Kernel {
		k.match, matched = p.history.Match(profile.GPU, l.TotalWarps(), profile.MeanWarpInsts)
	}
	p.history.Add(KernelRecord{Name: l.Name, GPU: profile.GPU, Warps: l.TotalWarps()})

	// Kernel-sampling: when a prior kernel with a matching GPU BBV exists,
	// run this kernel in fast-forward (functional) mode only — keeping the
	// memory image correct for later kernels whose control flow may depend
	// on its outputs — and borrow the prior kernel's IPC for timing. The
	// instruction count is exact: the fast-forward counts it.
	if matched {
		return &gpu.Plan{Advanced: k.advanced, Commit: k.commitMatched}, nil
	}
	k.armBB = p.levels.BB
	k.armWarp = p.levels.Warp && profile.GPU.DominantShare >= p.params.DominantWarpShare
	k.canGate = (k.armBB || k.armWarp) && canStopDispatch(g, l)
	plan := &gpu.Plan{Execute: k.execute, Overlap: !k.canGate, Advanced: k.advanced, Commit: k.commit}
	// A kernel that may end bb-sampling with workgroups left asks for a
	// functional pass beside its prefix.
	if k.armBB && k.canGate {
		k.pass = new(gpu.Pass)
		plan.Pass = k.pass
	}
	return plan, nil
}

// minRetires is the warp retirements both trackers wait for before they may
// gate: one full machine generation (every initially-resident warp slot
// turned over), so the recorded means are not dominated by the cold-start
// transient.
func minRetires(g *gpu.GPU) int {
	return g.Config().Compute.NumCUs * g.Config().Compute.WarpSlotsPerCU()
}

// canStopDispatch reports whether a tracker armed on l can stop g's
// dispatch: whether the earliest poll at which a gate may read true can
// still find a workgroup undispatched. When it cannot, the detailed run
// dispatches every workgroup and the kernel ends full.
func canStopDispatch(g *gpu.GPU, l *kernel.Launch) bool {
	return l.NumWorkgroups > dispatchedAtGate(ShapeOf(g, l), minRetires(g))
}

// dispatchedAtGate is the fewest workgroups a machine of shape s has
// dispatched, while any remain, when it first polls its gate after r warp
// retirements. The machine polls only when a workgroup drains, before it
// refills the freed slots. It starts full, with GroupServers resident
// groups, and each drain before that poll refilled one group, so the poll
// finds GroupServers + c dispatched, c the drains before it. At the poll
// the draining group has retired all its warps, and the other resident
// groups at most WarpsPerGroup-1 each. So r <= (c+1)·WarpsPerGroup +
// (GroupServers-1)·(WarpsPerGroup-1), which bounds c from below. At one
// warp per group c is exactly r-1: the r-th warp's callback may trigger a
// tracker before its own group is recycled.
func dispatchedAtGate(s MachineShape, r int) int {
	servers, w := s.GroupServers(), s.WarpsPerGroup
	drains := max(0, r-1-servers*(w-1))
	return servers + (drains+w-1)/w
}

// kernelPlan is one kernel between Photon's Plan and its Commit. Execute
// may run on another goroutine; it writes only complete and dec, which the
// Commit reads after it.
type kernelPlan struct {
	p       *Photon
	g       *gpu.GPU // the plan's sinks
	name    string
	profile *Profile
	rec     int // the kernel's History record
	match   int // the matched History record, when kernel-sampled

	armBB, armWarp bool
	canGate        bool      // an armed tracker can stop dispatch (canStopDispatch)
	pass           *gpu.Pass // the functional pass the plan asked for, if any

	advance  bool // a functional advance ran and counted insts
	insts    uint64
	complete bool // Execute's detailed run dispatched every workgroup
	dec      TierDecision
}

// advanced takes the functional advance's count: the pending record's exact
// Insts, known before the next kernel's Match reads it.
func (k *kernelPlan) advanced(insts uint64) {
	k.advance, k.insts = true, insts
	k.p.history.recs[k.rec].Insts = float64(insts)
}

// commitMatched predicts a kernel-sampled kernel from its matched record,
// which is earlier in launch order and so committed.
func (k *kernelPlan) commitMatched(gpu.KernelResult) (gpu.KernelResult, error) {
	rec := k.p.history.recs[k.match]
	ipc := rec.IPC()
	if !(ipc > 0) {
		return gpu.KernelResult{}, fmt.Errorf("core: %s: matched record %s has IPC %v, want > 0", k.name, rec.Name, ipc)
	}
	simTime := float64(k.insts) / ipc
	k.p.history.recs[k.rec].SimTime = simTime
	result := gpu.KernelResult{
		SimTime: EventTime(simTime),
		Insts:   k.insts,
		Mode:    TierKernel,
	}
	k.p.recordKernel(k.g, k.name, k.profile, result, TierDecision{KernelMatch: true})
	return result, nil
}

// execute is the detailed simulation with the per-level detectors attached.
// Switching is allowed only after minRetires warps retired.
//
// A run loop may run it over a launch whose Steps is not the app's:
// handed off, beside a functional advance of the image, a dependent
// program's replays the tapes it records on a fork (kernel.StepTape), and
// an independent program's runs timing-only over no image
// (kernel.StepAddresses), as it may inline beside the plan's started
// pass, which then makes the kernel's image. A kernel that ends warp-sampling names its
// prefix (gpu.Pass.Prefix), the workgroups the run loop must advance the
// image over instead.
func (k *kernelPlan) execute(g *gpu.GPU, l *kernel.Launch) (gpu.KernelResult, error) {
	params, profile := k.p.params, k.profile
	var bbT *bbTracker
	if k.armBB {
		bbT = newBBTracker(profile, params, minRetires(g))
		bbT.setMetrics(g.Metrics())
	}
	var wT *warpTracker
	if k.armWarp {
		wT = newWarpTracker(params, minRetires(g))
		wT.setMetrics(g.Metrics())
	}
	gate := func() bool {
		return (wT != nil && wT.triggered) || (bbT != nil && bbT.triggered)
	}
	res, err := g.RunDetailed(l, trackerObserver(bbT, wT), gate)
	if err != nil {
		return gpu.KernelResult{}, err
	}
	if !res.Complete && !k.canGate {
		// The plan ruled the gate out, and a pipelined run may have handed
		// the kernel off on that promise: serial or not, a gated run here
		// is a wrong bound.
		return gpu.KernelResult{}, fmt.Errorf("core: %s: planned unable to stop dispatch, gated at workgroup %d of %d", l.Name, res.NextWG, l.NumWorkgroups)
	}

	var result gpu.KernelResult
	switch {
	case res.Complete:
		result = gpu.Complete(res, gpu.TierFull)

	case wT != nil && wT.triggered:
		// Warp-sampling (Figure 10, step 3): simulate only the scheduler;
		// every remaining warp takes the window's mean duration, and none of
		// them executes.
		result = PredictRemainder(g, l, res, wT.meanWarpTime(), profile.MeanWarpInsts, TierWarp)
		k.pass.Prefix(res.NextWG)

	case bbT != nil && bbT.triggered:
		// Basic-block-sampling (Figure 7, step 3): functionally simulate
		// the remaining warps and accumulate their blocks' predicted times.
		rest, err := k.rest(l, res.NextWG)
		if err != nil {
			return gpu.KernelResult{}, fmt.Errorf("core: bb-sampling fast-forward: %w", err)
		}
		lm := NewLatencyModel(res, g.Config().Compute, params.DefaultMemLatency)
		durations, insts := bbT.predictGroups(rest, res.NextWG, l, lm, g.Config().Compute)
		end := PredictMakespan(float64(res.GateTime), float64(res.EndTime), durations, ShapeOf(g, l))
		result = gpu.KernelResult{SimTime: EventTime(end), Insts: res.InstCount + insts, DetailedInsts: res.InstCount, Mode: TierBB}

	default:
		// The gate stops dispatch only once a tracker has triggered.
		return gpu.KernelResult{}, fmt.Errorf("core: %s: detailed run stopped at workgroup %d with no tracker triggered", l.Name, res.NextWG)
	}

	k.complete = res.Complete
	k.dec = TierDecision{
		GateCycles:    float64(res.GateTime),
		BBStableShare: bbT.stableShare(),
	}
	k.dec.WarpSlope, k.dec.WarpSlopeOK = wT.slope()
	return result, nil
}

// rest tallies workgroups [from, NumWorkgroups) of l: the plan's pass read
// them beside the detailed prefix when the run loop started it, and
// otherwise they run now on the live image, after the prefix. Beside a
// prefix that ran with no image, and so met no value fault, the pass's
// failure at any workgroup is the kernel's; such a launch never runs the
// workgroups itself.
func (k *kernelPlan) rest(l *kernel.Launch, from int) (*emu.Tally, error) {
	if l.Memory == nil {
		from = 0
	}
	if t, ok, err := k.pass.Take(from); ok {
		return t, err
	}
	if l.Memory == nil {
		return nil, fmt.Errorf("core: %s: ran with no image and no functional pass beside it", k.name)
	}
	var t emu.Tally
	return &t, t.Record(l, from, l.NumWorkgroups-from, nil)
}

// commit fills the kernel's record from its detailed result. A kernel whose
// image was advanced functionally ran on a helper, so its plan promised a
// complete full run with the advance's instruction count: a broken promise
// is the kernel's error.
func (k *kernelPlan) commit(r gpu.KernelResult) (gpu.KernelResult, error) {
	if k.advance {
		if !k.complete || r.Mode != gpu.TierFull {
			return gpu.KernelResult{}, fmt.Errorf("core: %s: planned to end full, ended %s (complete %v)", k.name, r.Mode, k.complete)
		}
		if r.Insts != k.insts {
			return gpu.KernelResult{}, fmt.Errorf("core: %s: %d instructions in the detailed run, %d in the functional advance", k.name, r.Insts, k.insts)
		}
	}
	rec := &k.p.history.recs[k.rec]
	rec.Insts, rec.SimTime = float64(r.Insts), float64(r.SimTime)
	k.p.recordKernel(k.g, k.name, k.profile, r, k.dec)
	return r, nil
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
