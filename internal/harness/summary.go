package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Summary aggregates the comparisons of one (experiment, runner) pair the
// way the paper quotes its headline numbers: average and maximum sampling
// error, and geometric-mean and maximum wall-time speedup.
type Summary struct {
	Experiment     string
	Runner         string
	Rows           int
	MeanErrPct     float64
	MaxErrPct      float64
	GeoMeanSpeedup float64
	MaxSpeedup     float64
}

// Summarize groups records by (experiment, runner). The full baseline rows
// (runner BaselineMode) are skipped — they compare a run against itself.
func Summarize(records []Record) []Summary {
	type key struct{ exp, runner string }
	groups := map[key][]Record{}
	for _, r := range records {
		if r.Runner == BaselineMode {
			continue
		}
		k := key{r.Experiment, r.Runner}
		groups[k] = append(groups[k], r)
	}
	var out []Summary
	for k, rs := range groups {
		s := Summary{Experiment: k.exp, Runner: k.runner, Rows: len(rs)}
		logSum := 0.0
		for _, r := range rs {
			s.MeanErrPct += r.ErrPct
			if r.ErrPct > s.MaxErrPct {
				s.MaxErrPct = r.ErrPct
			}
			if r.Speedup > s.MaxSpeedup {
				s.MaxSpeedup = r.Speedup
			}
			logSum += math.Log(math.Max(r.Speedup, 1e-9))
		}
		s.MeanErrPct /= float64(len(rs))
		s.GeoMeanSpeedup = math.Exp(logSum / float64(len(rs)))
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Runner < out[j].Runner
	})
	return out
}

// PrintSummaries renders summaries as a table.
func PrintSummaries(w io.Writer, sums []Summary) {
	fmt.Fprintf(w, "%-10s %-14s %5s %10s %10s %12s %10s\n",
		"experiment", "runner", "rows", "mean_err%", "max_err%", "geo_speedup", "max_spdup")
	for _, s := range sums {
		fmt.Fprintf(w, "%-10s %-14s %5d %10.2f %10.2f %12.2f %10.2f\n",
			s.Experiment, s.Runner, s.Rows, s.MeanErrPct, s.MaxErrPct,
			s.GeoMeanSpeedup, s.MaxSpeedup)
	}
}
