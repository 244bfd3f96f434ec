// Command photon-report summarizes JSON-lines results produced by
// photon-bench -json: per (experiment, runner) it prints the paper's
// headline aggregates — mean/max sampling error and geometric-mean/max
// wall-time speedup.
//
//	photon-bench -exp fig13 -json fig13.jsonl
//	photon-report fig13.jsonl [more.jsonl ...]
//
// With -svg it also renders, per experiment, a sampling-error and a speedup
// bar chart (<exp>_error.svg, <exp>_speedup.svg) into the given directory,
// the graphical equivalent of the paper's evaluation panels.
//
//	photon-report -svg charts/ fig13.jsonl
//
// With -accuracy the inputs are per-kernel sampling-accuracy ledgers
// (photon-bench -accuracy-out, or GET /v1/jobs/{id}/accuracy from
// photon-serve) and the report shows, per (bench, runner), where the
// three-tier sampler spent its kernels and how far predictions drifted
// from the detailed baseline.
//
//	photon-bench -exp fig13 -quick -accuracy-out accuracy.jsonl
//	photon-report -accuracy accuracy.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/viz"
)

func main() {
	var (
		accuracy = flag.Bool("accuracy", false, "inputs are per-kernel accuracy ledgers (photon-bench -accuracy-out)")
		svgDir   = flag.String("svg", "", "also write per-experiment error and speedup bar charts to this directory")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("photon-report"))
		return
	}
	if flag.NArg() == 0 || (*accuracy && *svgDir != "") {
		fmt.Fprintln(os.Stderr, "usage: photon-report [-accuracy | -svg dir] <results.jsonl> [...]")
		os.Exit(2)
	}
	if *accuracy {
		ledger := readAll(harness.ReadAccuracyRecords)
		harness.PrintAccuracySummaries(os.Stdout, harness.SummarizeAccuracy(ledger))
		return
	}
	all := readAll(harness.ReadRecords)
	harness.PrintSummaries(os.Stdout, harness.Summarize(all))
	if *svgDir != "" {
		if err := writeCharts(*svgDir, all); err != nil {
			fatal(err)
		}
	}
}

// readAll parses every input file with read, in argument order.
func readAll[T any](read func(io.Reader) ([]T, error)) []T {
	var all []T
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		recs, err := read(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		all = append(all, recs...)
	}
	return all
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "photon-report: %v\n", err)
	os.Exit(1)
}

// writeCharts renders every experiment in recs into dir, in experiment-name
// order; the notices go to stderr so stdout stays the summary table.
func writeCharts(dir string, recs []harness.Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byExp := map[string][]harness.Record{}
	for _, r := range recs {
		byExp[r.Experiment] = append(byExp[r.Experiment], r)
	}
	exps := make([]string, 0, len(byExp))
	for e := range byExp {
		exps = append(exps, e)
	}
	sort.Strings(exps)
	for _, exp := range exps {
		if err := renderExperiment(dir, exp, byExp[exp]); err != nil {
			return err
		}
	}
	return nil
}

// renderExperiment writes <exp>_error.svg and <exp>_speedup.svg: one bar
// group per (bench, size) in first-appearance order, one bar per sampling
// runner (the full baseline compares a run against itself and is skipped).
func renderExperiment(dir, exp string, recs []harness.Record) error {
	runners := []string{}
	seenRunner := map[string]bool{}
	type gkey struct {
		bench string
		size  int
	}
	groupOrder := []gkey{}
	vals := map[gkey]map[string]harness.Record{}
	for _, r := range recs {
		if r.Runner == harness.BaselineMode {
			continue
		}
		if !seenRunner[r.Runner] {
			seenRunner[r.Runner] = true
			runners = append(runners, r.Runner)
		}
		k := gkey{r.Bench, r.Size}
		if vals[k] == nil {
			groupOrder = append(groupOrder, k)
			vals[k] = map[string]harness.Record{}
		}
		vals[k][r.Runner] = r
	}
	build := func(metric func(harness.Record) float64) []viz.BarGroup {
		var groups []viz.BarGroup
		for _, k := range groupOrder {
			label := k.bench
			if k.size > 0 {
				label = fmt.Sprintf("%s/%dK", k.bench, k.size/1024)
			}
			g := viz.BarGroup{Label: label}
			for _, runner := range runners {
				g.Values = append(g.Values, metric(vals[k][runner]))
			}
			groups = append(groups, g)
		}
		return groups
	}
	errSVG := viz.BarChart(exp+": sampling error", "err%", runners,
		build(func(r harness.Record) float64 { return r.ErrPct }))
	spdSVG := viz.BarChart(exp+": wall-time speedup", "speedup (x)", runners,
		build(func(r harness.Record) float64 { return r.Speedup }))
	if err := os.WriteFile(filepath.Join(dir, exp+"_error.svg"), []byte(errSVG), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, exp+"_speedup.svg"), []byte(spdSVG), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s_error.svg and %s_speedup.svg (%d groups, %d runners)\n",
		exp, exp, len(groupOrder), len(runners))
	return nil
}
