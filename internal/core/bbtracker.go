package core

import (
	"photon/internal/core/detect"
	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/timing"
)

// bbTracker implements basic-block-sampling's detection phase (Figure 7,
// step 2): it feeds every retired basic-block interval into a per-block-type
// least-squares detector and accumulates the instruction-weighted rate of
// stable block types. When the rate crosses the threshold, detailed
// simulation of further workgroups stops and the remaining warps are
// predicted block-by-block (step 3).
type bbTracker struct {
	params    Params
	share     []float64 // per block index, instruction share from the profile
	totalShr  float64   // share of non-rare blocks (the denominator)
	rare      []bool
	detectors []*detect.Detector
	adds      int
	triggered bool

	// minWarpRetires delays the switch until one full machine generation
	// has retired: until every initially-resident warp slot turns over, all
	// timing samples come from the cold-start generation (cold caches, the
	// dispatch burst), and means taken from it alone mispredict the steady
	// state.
	minWarpRetires int
	warpRetires    int

	// Telemetry handles (nil-safe no-ops when no registry is attached).
	accepts, rejects, rareEvents *obs.Counter
}

// setMetrics attaches the detector's telemetry counters.
func (t *bbTracker) setMetrics(reg *obs.Registry) {
	t.accepts = reg.Counter("photon_bb_stability_checks_total", obs.L("verdict", "accept"))
	t.rejects = reg.Counter("photon_bb_stability_checks_total", obs.L("verdict", "reject"))
	t.rareEvents = reg.Counter("photon_rare_bb_interval_events_total")
}

func newBBTracker(profile *Profile, params Params, minWarpRetires int) *bbTracker {
	share := profile.BlockShare()
	t := &bbTracker{
		params:         params,
		share:          share,
		rare:           make([]bool, len(share)),
		detectors:      make([]*detect.Detector, len(share)),
		minWarpRetires: minWarpRetires,
	}
	for i, s := range share {
		// Blocks the online analysis never saw, or saw with a negligible
		// instruction share, are rare: they must not gate the switch (the
		// paper's SpMV result-write block example), and their time comes
		// from the interval model instead.
		t.rare[i] = s < params.RareBlockShare
		if !t.rare[i] {
			t.totalShr += s
		}
	}
	return t
}

// OnBlockRetired feeds one basic-block interval to its block type's detector.
func (t *bbTracker) OnBlockRetired(now event.Time, w *emu.Warp, blockIdx int, enter, exit event.Time) {
	if t.triggered {
		return
	}
	d := t.detectors[blockIdx]
	if d == nil {
		d = detect.New(t.params.BBWindow, t.params.Delta)
		t.detectors[blockIdx] = d
	}
	d.Add(int64(enter), int64(exit))
	t.adds++
	if t.adds%t.params.CheckInterval == 0 {
		t.check()
	}
}

// OnWarpRetired counts retirements toward the first machine generation.
func (t *bbTracker) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	t.warpRetires++
}

func (t *bbTracker) check() {
	if t.totalShr == 0 || t.warpRetires < t.minWarpRetires {
		return
	}
	if t.stableShare() >= t.params.StableBBRate {
		t.triggered = true
		t.accepts.Inc()
	} else {
		t.rejects.Inc()
	}
}

// minMeasuredSamples is the sample count below which a block is predicted by
// the interval model rather than its measured mean.
const minMeasuredSamples = 64

// blockTime returns the predicted time for one execution of block i: the
// all-samples mean when enough executions were observed (averaging across
// dispatch waves), the interval model otherwise (rare blocks, Figure 9).
func (t *bbTracker) blockTime(i int, lm *LatencyModel, prog *isa.Program, cfg timing.Config) float64 {
	if d := t.detectors[i]; d != nil && d.Count() >= minMeasuredSamples {
		return d.GlobalMeanDuration()
	}
	t.rareEvents.Inc()
	return EstimateBlockTime(prog, i, lm, cfg)
}

// predictWarpTime accumulates the predicted time of a warp from its dynamic
// block counts (Figure 7, step 3).
func (t *bbTracker) predictWarpTime(counts []uint32, lm *LatencyModel, prog *isa.Program, cfg timing.Config) float64 {
	sum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		sum += float64(c) * t.blockTime(i, lm, prog, cfg)
	}
	return sum
}

// predictGroups predicts, in dispatch order, the duration of every
// workgroup of l the tally holds from workgroup from on, which is its
// longest warp's predicted time, and sums their instructions.
func (t *bbTracker) predictGroups(tally *emu.Tally, from int, l *kernel.Launch, lm *LatencyModel, cfg timing.Config) (durations []float64, insts uint64) {
	durations = make([]float64, 0, tally.End()-from)
	for wg := from; wg < tally.End(); wg++ {
		groupDur := 0.0
		for i := range l.WarpsPerGroup {
			n, counts := tally.Warp(wg, i)
			insts += n
			if d := t.predictWarpTime(counts, lm, l.Program, cfg); d > groupDur {
				groupDur = d
			}
		}
		durations = append(durations, groupDur)
	}
	return durations, insts
}
