package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"photon/internal/core"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
)

// Sampling-accuracy ledger: one JSONL record per kernel launch of every
// sampled run, pairing the controller's tier decision (and the detector
// evidence behind it) with the full-detailed baseline's cycles for the
// same kernel when the sweep simulated one. The ledger is the artifact
// that answers "which kernels got sampled, on what evidence, and what did
// it cost in accuracy" — per kernel, not just per benchmark.

// AccuracyRecord is one kernel launch's ledger entry.
type AccuracyRecord struct {
	Experiment string `json:"experiment,omitempty"`
	Bench      string `json:"bench"`
	Size       int    `json:"size,omitempty"`
	Runner     string `json:"runner"`
	Kernel     string `json:"kernel"`
	Index      int    `json:"index"`
	// Tier is the mechanism that produced the kernel's time: "full",
	// "bb-sampling", "warp-sampling", "kernel-sampling".
	Tier string `json:"tier"`
	// PredictedCycles is the sampled run's reported kernel time;
	// DetailedCycles is the full baseline's time for the same kernel (0
	// when no baseline kernel lines up); ErrPct is their absolute relative
	// error when both exist.
	PredictedCycles float64 `json:"predicted_cycles"`
	DetailedCycles  float64 `json:"detailed_cycles,omitempty"`
	ErrPct          float64 `json:"err_pct,omitempty"`
	// Instruction attribution: total, through the detailed timing model,
	// and through the online functional analysis.
	Insts         uint64 `json:"insts"`
	DetailedInsts uint64 `json:"detailed_insts"`
	SampledInsts  uint64 `json:"sampled_insts,omitempty"`
	// Detector evidence (zero-valued for tiers that did not consult it).
	BBStableShare     float64 `json:"bb_stable_share,omitempty"`
	WarpSlope         float64 `json:"warp_slope,omitempty"`
	WarpSlopeOK       bool    `json:"warp_slope_ok,omitempty"`
	DominantWarpShare float64 `json:"dominant_warp_share,omitempty"`
	GateCycles        float64 `json:"gate_cycles,omitempty"`
	KernelMatch       bool    `json:"kernel_match,omitempty"`
}

// accuracyRecords builds the ledger entries for one comparison: the
// sampled run's decisions zipped with the full baseline's per-kernel rows
// by launch index. Emission happens on the engine's plan-order callback,
// so ledger order is deterministic for any worker count.
func accuracyRecords(experiment string, c Comparison) []AccuracyRecord {
	if len(c.Sampled.Decisions) == 0 || c.Runner == "full" {
		return nil
	}
	out := make([]AccuracyRecord, 0, len(c.Sampled.Decisions))
	for i, d := range c.Sampled.Decisions {
		rec := AccuracyRecord{
			Experiment:        experiment,
			Bench:             c.Bench,
			Size:              c.Size,
			Runner:            c.Runner,
			Kernel:            d.Kernel,
			Index:             d.Index,
			Tier:              d.Tier,
			PredictedCycles:   d.PredictedCycles,
			Insts:             d.Insts,
			DetailedInsts:     d.DetailedInsts,
			SampledInsts:      d.SampledInsts,
			BBStableShare:     d.BBStableShare,
			WarpSlope:         d.WarpSlope,
			WarpSlopeOK:       d.WarpSlopeOK,
			DominantWarpShare: d.DominantShare,
			GateCycles:        d.GateCycles,
			KernelMatch:       d.KernelMatch,
		}
		if i < len(c.Full.PerKernel) {
			det := float64(c.Full.PerKernel[i].SimTime)
			rec.DetailedCycles = det
			if det > 0 {
				rec.ErrPct = math.Abs(rec.PredictedCycles-det) / det * 100
			}
		}
		out = append(out, rec)
	}
	return out
}

// AccuracySink streams ledger records as JSON lines and accumulates the
// per-tier roll-up behind PublishGauges and Summary. A nil sink discards;
// Emit is safe for concurrent use (though the sweep emits in plan order
// from one goroutine).
type AccuracySink struct {
	mu      sync.Mutex
	enc     *json.Encoder
	kernels int
	tiers   map[string]int
	errSum  float64 // sum of |err| over records with a baseline
	errN    int
	maxErr  float64
	maxRec  AccuracyRecord
}

// NewAccuracySink wraps a writer; pass nil to accumulate the roll-up
// without writing JSONL.
func NewAccuracySink(w io.Writer) *AccuracySink {
	s := &AccuracySink{tiers: make(map[string]int)}
	if w != nil {
		s.enc = json.NewEncoder(w)
	}
	return s
}

// Emit appends one ledger record.
func (s *AccuracySink) Emit(r AccuracyRecord) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kernels++
	s.tiers[r.Tier]++
	if r.DetailedCycles > 0 {
		s.errSum += r.ErrPct
		s.errN++
		if r.ErrPct >= s.maxErr {
			s.maxErr = r.ErrPct
			s.maxRec = r
		}
	}
	if s.enc == nil {
		return nil
	}
	return s.enc.Encode(r)
}

// Kernels returns how many ledger records were emitted.
func (s *AccuracySink) Kernels() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kernels
}

// PublishGauges writes the roll-up into a registry:
// photon_accuracy_kernels_total{tier}, photon_accuracy_mean_err_pct and
// photon_accuracy_max_err_pct.
func (s *AccuracySink) PublishGauges(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for tier, n := range s.tiers {
		reg.Gauge("photon_accuracy_kernels_total", obs.L("tier", tier)).Set(float64(n))
	}
	if s.errN > 0 {
		reg.Gauge("photon_accuracy_mean_err_pct").Set(s.errSum / float64(s.errN))
		reg.Gauge("photon_accuracy_max_err_pct").Set(s.maxErr)
	}
}

// Summary renders the run-end roll-up as one human line, e.g.
//
//	accuracy: 24 kernels (bb-sampling 14, kernel-sampling 6, full 4); mean |err| 1.3%, max 4.0% (MM/mm_tile #2)
func (s *AccuracySink) Summary() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kernels == 0 {
		return ""
	}
	tiers := make([]string, 0, len(s.tiers))
	for t := range s.tiers {
		tiers = append(tiers, t)
	}
	// Most-used tier first; ties break alphabetically for stable output.
	sort.Slice(tiers, func(i, j int) bool {
		if s.tiers[tiers[i]] != s.tiers[tiers[j]] {
			return s.tiers[tiers[i]] > s.tiers[tiers[j]]
		}
		return tiers[i] < tiers[j]
	})
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s %d", t, s.tiers[t])
	}
	out := fmt.Sprintf("accuracy: %d kernels (%s)", s.kernels, strings.Join(parts, ", "))
	if s.errN > 0 {
		out += fmt.Sprintf("; mean |err| %.2f%%, max %.2f%% (%s/%s #%d)",
			s.errSum/float64(s.errN), s.maxErr, s.maxRec.Bench, s.maxRec.Kernel, s.maxRec.Index)
	}
	return out
}

// ReadAccuracyRecords parses a ledger (accuracy.jsonl) back; blank lines
// are skipped, any malformed line is an error.
func ReadAccuracyRecords(r io.Reader) ([]AccuracyRecord, error) {
	var out []AccuracyRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec AccuracyRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("harness: accuracy record line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SummarizeAccuracy aggregates parsed ledger records per (bench, runner):
// kernel counts per tier and the error distribution — photon-report's
// -accuracy view.
type AccuracySummary struct {
	Bench   string
	Runner  string
	Kernels int
	Tiers   map[string]int
	MeanErr float64
	MaxErr  float64
}

// SummarizeAccuracy groups records by (bench, runner), ordered by first
// appearance.
func SummarizeAccuracy(recs []AccuracyRecord) []AccuracySummary {
	idx := map[string]int{}
	var out []AccuracySummary
	errN := map[string]int{}
	for _, r := range recs {
		k := r.Bench + "\x00" + r.Runner
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, AccuracySummary{Bench: r.Bench, Runner: r.Runner, Tiers: map[string]int{}})
		}
		s := &out[i]
		s.Kernels++
		s.Tiers[r.Tier]++
		if r.DetailedCycles > 0 {
			s.MeanErr += r.ErrPct
			errN[k]++
			if r.ErrPct > s.MaxErr {
				s.MaxErr = r.ErrPct
			}
		}
	}
	for k, i := range idx {
		if n := errN[k]; n > 0 {
			out[i].MeanErr /= float64(n)
		}
	}
	return out
}

// PrintAccuracySummaries writes the -accuracy view as an aligned table.
func PrintAccuracySummaries(w io.Writer, sums []AccuracySummary) {
	fmt.Fprintf(w, "%-10s %-14s %8s %8s %8s %8s %8s %9s %9s\n",
		"bench", "runner", "kernels", "full", "bb", "warp", "kmatch", "mean_err%", "max_err%")
	for _, s := range sums {
		fmt.Fprintf(w, "%-10s %-14s %8d %8d %8d %8d %8d %9.2f %9.2f\n",
			s.Bench, s.Runner, s.Kernels,
			s.Tiers["full"], s.Tiers["bb-sampling"], s.Tiers["warp-sampling"], s.Tiers["kernel-sampling"],
			s.MeanErr, s.MaxErr)
	}
}

// decisionsOf returns the tier ledger of a runner that keeps one (Photon);
// other runners contribute no accuracy records.
func decisionsOf(r gpu.Runner) []core.TierDecision {
	if ds, ok := r.(interface{ Decisions() []core.TierDecision }); ok {
		return ds.Decisions()
	}
	return nil
}
