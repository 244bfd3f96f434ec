// Command photon-viz renders experiment results as SVG charts: per
// experiment it produces a sampling-error bar chart and a speedup bar chart
// from photon-bench's JSON-lines output, the graphical equivalent of the
// paper's evaluation panels.
//
//	photon-bench -exp fig13 -json fig13.jsonl
//	photon-viz -json fig13.jsonl -out charts/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/viz"
)

func main() {
	var (
		jsonPath = flag.String("json", "", "JSON-lines results from photon-bench -json")
		outDir   = flag.String("out", ".", "directory for the SVG files")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("photon-viz"))
		return
	}
	if *jsonPath == "" {
		fmt.Fprintln(os.Stderr, "usage: photon-viz -json results.jsonl [-out dir]")
		os.Exit(2)
	}
	f, err := os.Open(*jsonPath)
	if err != nil {
		fatal(err)
	}
	recs, err := harness.ReadRecords(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
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
		if err := renderExperiment(*outDir, exp, byExp[exp]); err != nil {
			fatal(err)
		}
	}
}

// renderExperiment writes <exp>_error.svg and <exp>_speedup.svg.
func renderExperiment(dir, exp string, recs []harness.Record) error {
	runners := []string{}
	seenRunner := map[string]bool{}
	type gkey struct {
		bench string
		size  int
	}
	groupOrder := []gkey{}
	seenGroup := map[gkey]bool{}
	vals := map[gkey]map[string]harness.Record{}
	for _, r := range recs {
		if r.Runner == "full" {
			continue
		}
		if !seenRunner[r.Runner] {
			seenRunner[r.Runner] = true
			runners = append(runners, r.Runner)
		}
		k := gkey{r.Bench, r.Size}
		if !seenGroup[k] {
			seenGroup[k] = true
			groupOrder = append(groupOrder, k)
		}
		if vals[k] == nil {
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
	fmt.Printf("wrote %s_error.svg and %s_speedup.svg (%d groups, %d runners)\n",
		exp, exp, len(groupOrder), len(runners))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "photon-viz: %v\n", err)
	os.Exit(1)
}
