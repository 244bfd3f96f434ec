package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"photon/internal/core"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/stats"
)

// Sampling-accuracy ledger: one JSONL record per kernel launch of every
// sampled run, pairing the controller's tier decision (and the detector
// evidence behind it) with the full-detailed baseline's cycles for the
// same kernel when the sweep simulated one. The ledger is the artifact
// that answers "which kernels got sampled, on what evidence, and what did
// it cost in accuracy" — per kernel, not just per benchmark.

// AccuracyRecord is one kernel launch's ledger entry: where the run sits
// in the sweep, then the controller's decision with the baseline join
// (DetailedCycles, ErrPct) filled in.
type AccuracyRecord struct {
	Experiment string `json:"experiment,omitempty"`
	Bench      string `json:"bench"`
	Size       int    `json:"size,omitempty"`
	Runner     string `json:"runner"`
	core.TierDecision
}

// accuracyRecords builds the ledger entries for one comparison: the
// sampled run's decisions zipped with the full baseline's per-kernel rows
// by launch index. Emission happens on the engine's plan-order callback,
// so ledger order is deterministic for any worker count.
func accuracyRecords(experiment string, c Comparison) []AccuracyRecord {
	out := make([]AccuracyRecord, 0, len(c.Sampled.Decisions))
	for i, d := range c.Sampled.Decisions {
		if i < len(c.Full.PerKernel) {
			d.DetailedCycles = float64(c.Full.PerKernel[i].SimTime)
			d.ErrPct = stats.AbsErrorPct(d.DetailedCycles, d.PredictedCycles)
		}
		out = append(out, AccuracyRecord{
			Experiment: experiment, Bench: c.Bench, Size: c.Size, Runner: c.Runner, TierDecision: d,
		})
	}
	return out
}

// accuracyRollup is the one roll-up of ledger records, behind the sink's
// run-end line and gauges and photon-report's -accuracy table: kernels per
// tier, and the error distribution over the records with a baseline
// (DetailedCycles > 0; a kernel no baseline lined up with is not a 0 %
// error).
type accuracyRollup struct {
	Kernels int
	Tiers   map[string]int
	MaxErr  float64
	maxRec  AccuracyRecord // the record behind MaxErr; of equal maxima the last
	errSum  float64
	errN    int
}

func (a *accuracyRollup) add(r AccuracyRecord) {
	if a.Tiers == nil {
		a.Tiers = make(map[string]int)
	}
	a.Kernels++
	a.Tiers[r.Tier]++
	if r.DetailedCycles > 0 {
		a.errSum += r.ErrPct
		a.errN++
		if r.ErrPct >= a.MaxErr {
			a.MaxErr = r.ErrPct
			a.maxRec = r
		}
	}
}

// meanErr is the mean |err| over the records with a baseline (0 if none).
func (a *accuracyRollup) meanErr() float64 {
	if a.errN == 0 {
		return 0
	}
	return a.errSum / float64(a.errN)
}

// AccuracySink streams ledger records as JSON lines and keeps the run's
// roll-up behind Kernels, Summary and PublishGauges. A nil sink discards;
// Emit is safe for concurrent use (though the sweep emits in plan order
// from one goroutine).
type AccuracySink struct {
	mu   sync.Mutex
	out  *jsonLines[AccuracyRecord]
	roll accuracyRollup
}

// NewAccuracySink wraps a writer; pass nil to accumulate the roll-up
// without writing JSONL.
func NewAccuracySink(w io.Writer) *AccuracySink {
	return &AccuracySink{out: newJSONLines[AccuracyRecord](w)}
}

// Emit appends one ledger record.
func (s *AccuracySink) Emit(r AccuracyRecord) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roll.add(r)
	return s.out.Emit(r)
}

// Kernels returns how many ledger records were emitted.
func (s *AccuracySink) Kernels() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roll.Kernels
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
	for tier, n := range s.roll.Tiers {
		reg.Gauge("photon_accuracy_kernels_total", obs.L("tier", tier)).Set(float64(n))
	}
	if s.roll.errN > 0 {
		reg.Gauge("photon_accuracy_mean_err_pct").Set(s.roll.meanErr())
		reg.Gauge("photon_accuracy_max_err_pct").Set(s.roll.MaxErr)
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
	a := &s.roll
	if a.Kernels == 0 {
		return ""
	}
	tiers := make([]string, 0, len(a.Tiers))
	for t := range a.Tiers {
		tiers = append(tiers, t)
	}
	// Most-used tier first; ties break alphabetically for stable output.
	sort.Slice(tiers, func(i, j int) bool {
		if a.Tiers[tiers[i]] != a.Tiers[tiers[j]] {
			return a.Tiers[tiers[i]] > a.Tiers[tiers[j]]
		}
		return tiers[i] < tiers[j]
	})
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s %d", t, a.Tiers[t])
	}
	out := fmt.Sprintf("accuracy: %d kernels (%s)", a.Kernels, strings.Join(parts, ", "))
	if a.errN > 0 {
		out += fmt.Sprintf("; mean |err| %.2f%%, max %.2f%% (%s/%s #%d)",
			a.meanErr(), a.MaxErr, a.maxRec.Bench, a.maxRec.Kernel, a.maxRec.Index)
	}
	return out
}

// AccuracySummary is the roll-up of one (bench, runner) pair's ledger
// records — photon-report's -accuracy view.
type AccuracySummary struct {
	Bench  string
	Runner string
	accuracyRollup
}

// SummarizeAccuracy groups records by (bench, runner), ordered by first
// appearance.
func SummarizeAccuracy(recs []AccuracyRecord) []AccuracySummary {
	idx := map[[2]string]int{}
	var out []AccuracySummary
	for _, r := range recs {
		k := [2]string{r.Bench, r.Runner}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, AccuracySummary{Bench: r.Bench, Runner: r.Runner})
		}
		out[i].add(r)
	}
	return out
}

// PrintAccuracySummaries writes the -accuracy view as an aligned table.
func PrintAccuracySummaries(w io.Writer, sums []AccuracySummary) {
	fmt.Fprintf(w, "%-10s %-14s %8s %8s %8s %8s %8s %9s %9s\n",
		"bench", "runner", "kernels", gpu.TierFull, "bb", "warp", "kmatch", "mean_err%", "max_err%")
	for _, s := range sums {
		fmt.Fprintf(w, "%-10s %-14s %8d %8d %8d %8d %8d %9.2f %9.2f\n",
			s.Bench, s.Runner, s.Kernels,
			s.Tiers[gpu.TierFull], s.Tiers[core.TierBB], s.Tiers[core.TierWarp], s.Tiers[core.TierKernel],
			s.meanErr(), s.MaxErr)
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
