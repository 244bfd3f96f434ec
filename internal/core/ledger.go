package core

// TierDecision is the controller's per-kernel accounting entry: which
// sampling tier produced the kernel's result and the detector evidence
// behind the choice. Photon accumulates one per RunKernel; the harness
// drains them into the run's accuracy ledger (accuracy.jsonl), where they
// meet the full-detailed baseline for error attribution. The struct is the
// ledger line's body — its fields carry the ledger's JSON names, in the
// ledger's order — so a new per-kernel field is declared once, here.
type TierDecision struct {
	// Kernel is the launch name; Index is the 0-based launch ordinal within
	// this Photon instance (one instance per application run).
	Kernel string `json:"kernel"`
	Index  int    `json:"index"`
	// Tier is the mechanism that produced the result: gpu.TierFull, TierBB,
	// TierWarp or TierKernel.
	Tier string `json:"tier"`
	// PredictedCycles is the reported kernel time. DetailedCycles is the
	// full baseline's time for the same kernel and ErrPct their absolute
	// relative error: the harness fills both when a baseline kernel lines
	// up, and they stay zero in the controller's own ledger.
	PredictedCycles float64 `json:"predicted_cycles"`
	DetailedCycles  float64 `json:"detailed_cycles,omitempty"`
	ErrPct          float64 `json:"err_pct,omitempty"`
	// Insts is the kernel's total (measured or predicted) warp-instruction
	// count; DetailedInsts went through the timing model; SampledInsts went
	// through the online functional analysis.
	Insts         uint64 `json:"insts"`
	DetailedInsts uint64 `json:"detailed_insts"`
	SampledInsts  uint64 `json:"sampled_insts,omitempty"`
	// BBStableShare is the instruction-weighted share of stable block types
	// at the end of the run (bb-sampling evidence; 0 when the tracker was
	// not armed).
	BBStableShare float64 `json:"bb_stable_share,omitempty"`
	// WarpSlope is the warp detector's normalized least-squares slope;
	// WarpSlopeOK reports whether the fit existed (warp-sampling evidence).
	WarpSlope   float64 `json:"warp_slope,omitempty"`
	WarpSlopeOK bool    `json:"warp_slope_ok,omitempty"`
	// DominantShare is the profile's dominant-warp-type share, the
	// warp-sampling arming condition.
	DominantShare float64 `json:"dominant_warp_share,omitempty"`
	// GateCycles is where detailed simulation stopped (equal to
	// PredictedCycles in full mode).
	GateCycles float64 `json:"gate_cycles,omitempty"`
	// KernelMatch reports that kernel-sampling matched a prior kernel's GPU
	// BBV and borrowed its IPC.
	KernelMatch bool `json:"kernel_match,omitempty"`
}

// Decisions returns the per-kernel tier decisions recorded so far, in
// launch order. The slice is the controller's own; callers must not
// mutate it.
func (p *Photon) Decisions() []TierDecision { return p.decisions }

// stableShare reports the instruction-weighted share of non-rare block
// types currently judged stable — the bb-sampling gate's input, exposed
// for the decision ledger.
func (t *bbTracker) stableShare() float64 {
	if t == nil || t.totalShr == 0 {
		return 0
	}
	stable := 0.0
	for i, d := range t.detectors {
		if t.rare[i] || d == nil {
			continue
		}
		if d.Stable() {
			stable += t.share[i]
		}
	}
	return stable / t.totalShr
}

// slope reports the warp detector's current normalized slope and whether a
// fit exists — the warp-sampling gate's input, exposed for the decision
// ledger.
func (t *warpTracker) slope() (float64, bool) {
	if t == nil {
		return 0, false
	}
	return t.det.Slope()
}
