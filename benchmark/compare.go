package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json the benchmark reads back.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// readRuns loads the untraced runs of a -out file, grouped by workload.
func readRuns(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]runRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

// Verdicts of one (workload, metric) pair.
const (
	verdictPass       = "PASS"
	verdictUnresolved = "UNRESOLVED"
	verdictFail       = "FAIL"
)

// judge compares set b against set a for one metric: FAIL when b's median is
// worse than a's by more than the bound; UNRESOLVED when it is not, but
// either set's quartile spread is wider than the bound and b's runs do not
// all read better than all of a's; PASS otherwise.
func judge(a, b []float64, better string, bound float64) (delta float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	if worse > bound {
		return delta, verdictFail
	}
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return delta, verdictUnresolved
		}
	}
	return delta, verdictPass
}

// compareFiles prints, per (workload, end-to-end metric), both medians,
// their spreads, the relative delta and the verdict against the bounds in
// the contract. Any failed operation or a FAIL verdict makes it an error.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	c, err := readContract(specPath)
	if err != nil {
		return err
	}
	runsA, err := readRuns(pathA)
	if err != nil {
		return err
	}
	runsB, err := readRuns(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range runsA {
		if len(runsB[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Fprintf(w, "%-15s %-22s %5s %13s %8s %13s %8s %8s %7s  %s\n",
		"workload", "metric", "n", "median_a", "spread_a", "median_b", "spread_b", "delta", "bound", "verdict")
	fails, failedOps := 0, 0
	for _, name := range names {
		for _, r := range append(append([]runRecord(nil), runsA[name]...), runsB[name]...) {
			failedOps += r.Failed
		}
		for _, m := range c.EndToEnd {
			va, vb := values(runsA[name], m.Name), values(runsB[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, verdict := judge(va, vb, m.Better, m.Bound)
			if verdict == verdictFail {
				fails++
			}
			fmt.Fprintf(w, "%-15s %-22s %2d/%-2d %13.6g %7.2f%% %13.6g %7.2f%% %+7.2f%% %6.2f%%  %s\n",
				name, m.Name, len(va), len(vb), median(va), 100*quartileSpread(va),
				median(vb), 100*quartileSpread(vb), 100*delta, 100*m.Bound, verdict)
		}
	}
	if failedOps > 0 {
		return fmt.Errorf("%d operations failed across the compared runs", failedOps)
	}
	if fails > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", fails)
	}
	return nil
}

func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if s, ok := r.Metrics[metric]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}
