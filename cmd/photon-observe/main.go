// Command photon-observe regenerates the paper's observation figures
// (Section 3): IPC-over-time behavior (Figure 1), basic-block timing
// stability (Figures 2 and 3), warp timing (Figure 4), GPU-BBV clustering of
// VGG-16 kernels against their IPC (Figure 6), and the all-vs-sampled
// distribution comparisons (Figures 8 and 11).
//
//	photon-observe -exp fig3
//	photon-observe -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/viz"
	"photon/internal/workloads/dnn"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with testable plumbing; all failure paths — including
// the deferred profile writes — land in the exit code. 0 = success,
// 1 = runtime failure, 2 = usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("photon-observe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "figure: fig1|fig2|fig3|fig4|fig6|fig8|fig11|all")
		arch       = fs.String("arch", "r9nano", "GPU configuration: r9nano or mi100")
		svgDir     = fs.String("svg", "", "also render figures as SVG into this directory (fig1)")
		parallel   = fs.Int("parallel", 0, "worker count for per-figure jobs (<= 0: one per CPU)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Print("photon-observe"))
		return 0
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "photon-observe: %v\n", err)
		return 1
	}
	code := runFigures(*exp, *arch, *svgDir, *parallel, stdout, stderr)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "photon-observe: profiles: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func runFigures(exp, arch, svgDir string, parallel int, stdout, stderr io.Writer) int {
	cfg, ok := gpu.Configs(arch)
	if !ok {
		fmt.Fprintf(stderr, "photon-observe: unknown arch %q\n", arch)
		return 2
	}
	all := exp == "all"
	// Figures 2-4 print from the same two detailed runs (MM, SpMV): whichever
	// of them runs first simulates, the others reuse its samples.
	var samples harness.ObsSamples
	sampled := func(fig func(io.Writer, harness.ObsSamples)) func() error {
		return func() error {
			if samples == nil {
				var err error
				if samples, err = harness.SampleObs(cfg, parallel); err != nil {
					return err
				}
			}
			fig(stdout, samples)
			return nil
		}
	}
	figures := []struct {
		name string
		run  func() error
	}{
		{"fig1", func() error {
			names, data, err := harness.Fig1Data(cfg, parallel)
			if err != nil {
				return err
			}
			harness.Fig1(stdout, names, data)
			if svgDir != "" {
				return renderFig1SVG(stdout, svgDir, names, data)
			}
			return nil
		}},
		{"fig2", sampled(harness.Fig2)},
		{"fig3", sampled(harness.Fig3)},
		{"fig4", sampled(harness.Fig4)},
		// A reduced DNN scale keeps the full-detailed VGG pass short.
		{"fig6", func() error { return harness.Fig6(stdout, cfg, dnn.Scale{Input: 32, ChannelDiv: 8}) }},
		{"fig8", func() error { return harness.Fig8(stdout, parallel) }},
		{"fig11", func() error { return harness.Fig11(stdout, parallel) }},
	}
	known := false
	for _, f := range figures {
		if !all && exp != f.name {
			continue
		}
		known = true
		if err := f.run(); err != nil {
			fmt.Fprintf(stderr, "photon-observe: %v\n", err)
			return 1
		}
	}
	if !known {
		fmt.Fprintf(stderr, "photon-observe: unknown experiment %q\n", exp)
		return 2
	}
	return 0
}

// renderFig1SVG writes the Figure 1 IPC-over-time line chart.
func renderFig1SVG(stdout io.Writer, dir string, names []string, data map[string][]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var series []viz.Series
	for _, n := range names {
		series = append(series, viz.Series{Name: n, Values: data[n]})
	}
	svg := viz.LineChart("Figure 1: IPC over time", "cycles", "IPC",
		float64(harness.Fig1IPCWindow), series)
	path := filepath.Join(dir, "fig1_ipc.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
