package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"photon/internal/core"
	"photon/internal/core/bbv"
	"photon/internal/core/detect"
	"photon/internal/harness/engine"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/timing"
	"photon/internal/stats"
	"photon/internal/viz"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// This file regenerates the paper's observation figures (Section 3):
// Figure 1 (IPC over time), Figures 2/3 (basic-block execution time and the
// issue/retired relationship), Figure 4 (the same at warp level), Figure 6
// (GPU-BBV clusters vs kernel IPC for VGG-16 layers), and Figures 8/11
// (basic-block and warp-type distributions: all warps vs a 1% sample). Each is
// a registry entry like the evaluation figures: a pure function of
// (w, Options), measured on the R9 Nano, its jobs on o.Parallel workers under
// o.ctx(), and every simulation a RunAppInstrumented run.

// The observation apps, at moderate problem sizes so the runs finish fast.
// Every job builds its own: a run executes stores into the app's memory image.
type appBuilder = func() (*workloads.App, error)

func obsReLU() (*workloads.App, error) { return workloads.BuildReLU(16384) }

// MM needs to exceed the R9 Nano's 2560 resident warps, or every warp issues
// at t~0 and the warp-level issue/retire fit (Figure 4) is degenerate.
func obsMM() (*workloads.App, error)   { return workloads.BuildMM(4096) }
func obsSPMV() (*workloads.App, error) { return workloads.BuildSPMV(2048) }
func obsSC() (*workloads.App, error)   { return workloads.BuildSC(1024) }

// observe runs a one-launch observation app in full detail on the R9 Nano
// with obs attached to the timing machine.
func (o Options) observe(ctx context.Context, tid int, app *workloads.App, obs timing.Observer) error {
	_, err := RunAppInstrumented(ctx, gpu.R9Nano(), app, gpu.FullRunner{Observer: obs}, o.appObs(tid))
	return err
}

// fig1IPCWindow is the IPC sampling window for the Figure 1 series.
const fig1IPCWindow = 500

// Fig1 prints the IPC series of a stabilizing kernel (ReLU) and a
// fluctuating one (MM), reproducing Observation 1/2: one engine job per
// kernel, each a full-detailed run on its own GPU. With o.SVGDir set it also
// renders the series as a line chart.
func Fig1(w io.Writer, o Options) error {
	names := []string{"ReLU", "MM"}
	builds := []appBuilder{obsReLU, obsMM}
	tasks := make([]engine.Task[[]float64], len(builds))
	for i, build := range builds {
		tasks[i] = func(ctx context.Context) ([]float64, error) {
			app, err := build()
			if err != nil {
				return nil, err
			}
			col := stats.NewIPCCollector(fig1IPCWindow)
			if err := o.observe(ctx, i, app, timing.Observer{InstIssued: col.OnInstIssued}); err != nil {
				return nil, err
			}
			return col.Series(), nil
		}
	}
	data, err := engine.Collect(o.ctx(), o.Parallel, tasks, o.engineIns())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Figure 1: IPC over time (window = %d cycles)\n", fig1IPCWindow)
	chart := make([]viz.Series, len(names))
	for i, name := range names {
		series := data[i]
		chart[i] = viz.Series{Name: name, Values: series}
		// The steady-state cv (second half of the run) separates "IPC
		// stabilizes after warm-up" from "IPC keeps fluctuating", which is
		// the distinction Observation 2 draws.
		steady := series[len(series)/2:]
		fmt.Fprintf(w, "%s: %d windows, mean IPC %.2f, cv %.3f, steady-half cv %.3f\n",
			name, len(series), stats.Mean(series), cv(series), cv(steady))
		fmt.Fprintf(w, "  IPC over time: %s\n", sparkline(series, 60))
		printSeries(w, name, series, 24)
	}
	if o.SVGDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.SVGDir, 0o755); err != nil {
		return err
	}
	svg := viz.LineChart("Figure 1: IPC over time", "cycles", "IPC", fig1IPCWindow, chart)
	path := filepath.Join(o.SVGDir, "fig1_ipc.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

func cv(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	v := stats.Variance(xs)
	return v / (m * m)
}

// printSeries prints up to k evenly spaced points of a series.
func printSeries(w io.Writer, name string, xs []float64, k int) {
	if len(xs) == 0 {
		return
	}
	step := len(xs) / k
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(xs); i += step {
		fmt.Fprintf(w, "  %s[%d] = %.2f\n", name, i, xs[i])
	}
}

// blockSampler records (enter, exit) pairs of the dominating basic block
// and (issue, retire) pairs of warps.
type blockSampler struct {
	targetBlock int
	BlockPairs  [][2]event.Time
	WarpPairs   [][2]event.Time
	cap         int
}

func (s *blockSampler) OnBlockRetired(now event.Time, wp *emu.Warp, blockIdx int, enter, exit event.Time) {
	if blockIdx == s.targetBlock && len(s.BlockPairs) < s.cap {
		s.BlockPairs = append(s.BlockPairs, [2]event.Time{enter, exit})
	}
}

func (s *blockSampler) OnWarpRetired(now event.Time, wp *emu.Warp, issue event.Time) {
	if len(s.WarpPairs) < s.cap {
		s.WarpPairs = append(s.WarpPairs, [2]event.Time{issue, now})
	}
}

// dominantBlock finds the instruction-dominating block index via a small
// functional sample.
func dominantBlock(app *workloads.App) (int, error) {
	prof, err := core.AnalyzeOnline(app.Launches[0], 0.02)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, uint64(0)
	for i, v := range prof.BlockInsts {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}

// obsBenchNames is the regular/irregular pair Figures 2-4 analyze.
var obsBenchNames = []string{"MM", "SpMV"}

// sampleObs runs the detailed block/warp sampling for MM and SpMV
// (obsBenchNames order) as parallel engine jobs, each building its own app.
// Figures 2-4 each print from one such pair of runs.
func sampleObs(o Options) ([]*blockSampler, error) {
	builds := []appBuilder{obsMM, obsSPMV}
	tasks := make([]engine.Task[*blockSampler], len(builds))
	for i, build := range builds {
		tasks[i] = func(ctx context.Context) (*blockSampler, error) {
			app, err := build()
			if err != nil {
				return nil, err
			}
			target, err := dominantBlock(app)
			if err != nil {
				return nil, err
			}
			s := &blockSampler{targetBlock: target, cap: 1 << 20}
			return s, o.observe(ctx, i, app, timing.Observer{BlockRetired: s.OnBlockRetired, WarpRetired: s.OnWarpRetired})
		}
	}
	return engine.Collect(o.ctx(), o.Parallel, tasks, o.engineIns())
}

// Fig2 prints the execution-time series and global variance of the
// dominating basic block for MM (regular) and SpMV (irregular).
func Fig2(w io.Writer, o Options) error {
	samples, err := sampleObs(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 2: dominating basic block execution time over retirement order")
	for i, s := range samples {
		name := obsBenchNames[i]
		durs := make([]float64, len(s.BlockPairs))
		for i, p := range s.BlockPairs {
			durs[i] = float64(p[1] - p[0])
		}
		fmt.Fprintf(w, "%s: block %d, %d executions, mean %.1f cycles, variance %.1f (normalized %.3f)\n",
			name, s.targetBlock, len(durs), stats.Mean(durs), stats.Variance(durs), cv(durs))
		fmt.Fprintf(w, "  exec time over retirement order: %s\n", sparkline(durs, 60))
		printSeries(w, name+"-bbtime", durs, 20)
	}
	return nil
}

// Fig3 fits the least-squares line of the dominating block's issue/retired
// relationship (slope should approach 1 once contention stabilizes).
func Fig3(w io.Writer, o Options) error {
	samples, err := sampleObs(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 3: dominating basic block issue vs retired time (least-squares)")
	for i, s := range samples {
		a, b := fitPairs(s.BlockPairs)
		aTail, _ := fitTail(s.BlockPairs, 2048)
		fmt.Fprintf(w, "%s: retired = %.4f * issue + %.1f over %d samples; tail-window slope %.4f\n",
			obsBenchNames[i], a, b, len(s.BlockPairs), aTail)
	}
	return nil
}

// Fig4 does the same at warp level: regular applications' slope approaches
// 1, irregular ones deviate.
func Fig4(w io.Writer, o Options) error {
	samples, err := sampleObs(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 4: warp issue vs retired time (least-squares)")
	for i, s := range samples {
		a, b := fitPairs(s.WarpPairs)
		aTail, _ := fitTail(s.WarpPairs, 1024)
		fmt.Fprintf(w, "%s: retired = %.4f * issue + %.1f over %d warps; tail-window slope %.4f\n",
			obsBenchNames[i], a, b, len(s.WarpPairs), aTail)
	}
	return nil
}

func fitPairs(pairs [][2]event.Time) (a, b float64) {
	if len(pairs) < 2 {
		return 0, 0
	}
	a, _ = fitPairsSlope(pairs)
	// Intercept from means: b = mean(y) - a*mean(x).
	var sx, sy float64
	for _, p := range pairs {
		sx += float64(p[0])
		sy += float64(p[1])
	}
	n := float64(len(pairs))
	return a, sy/n - a*sx/n
}

func fitTail(pairs [][2]event.Time, window int) (a float64, ok bool) {
	if len(pairs) < window {
		window = len(pairs)
	}
	if window < 2 {
		return 0, false
	}
	return fitPairsSlope(pairs[len(pairs)-window:])
}

func fitPairsSlope(pairs [][2]event.Time) (float64, bool) {
	d := detect.New(len(pairs), 0.03)
	for _, p := range pairs {
		d.Add(int64(p[0]), int64(p[1]))
	}
	return d.Slope()
}

// Fig6 clusters the VGG-16 layer kernels by GPU BBV and prints each
// cluster's kernels with their full-detailed IPC: kernels in one cluster
// should have similar IPC (Observation 5). A Photon with no level armed is
// the measurement: per kernel it runs the 1% online analysis, simulates in
// full detail, and records (GPU BBV, insts, cycles) in its history.
func Fig6(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 6: VGG-16 kernels clustered by GPU BBV vs their IPC")
	// A reduced DNN scale keeps the full-detailed VGG pass short.
	app, err := dnn.BuildVGG(16, dnn.Scale{Input: 32, ChannelDiv: 8})
	if err != nil {
		return err
	}
	cfg := gpu.R9Nano()
	p, err := core.New(cfg, o.Params, core.Levels{})
	if err != nil {
		return err
	}
	if _, err := RunAppInstrumented(o.ctx(), cfg, app, p, o.appObs(0)); err != nil {
		return err
	}
	infos := p.History().Records()
	// Single-linkage clustering at the kernel-sampling distance threshold.
	const threshold = 0.05
	cluster := make([]int, len(infos))
	for i := range cluster {
		cluster[i] = -1
	}
	next := 0
	for i := range infos {
		if cluster[i] >= 0 {
			continue
		}
		cluster[i] = next
		for j := i + 1; j < len(infos); j++ {
			if cluster[j] < 0 && bbv.Distance(infos[i].GPU, infos[j].GPU) < threshold {
				cluster[j] = next
			}
		}
		next++
	}
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cluster[order[a]] < cluster[order[b]] })
	fmt.Fprintf(w, "%-8s %-10s %8s\n", "cluster", "kernel", "IPC")
	for _, i := range order {
		fmt.Fprintf(w, "%-8d %-10s %8.2f\n", cluster[i], infos[i].Name, infos[i].IPC())
	}
	return nil
}

// Fig8 compares the basic-block instruction distribution of all warps vs a
// 1% sample for SC (regular) and SpMV (irregular).
func Fig8(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 8: basic-block distribution — all warps vs 1% sample")
	return distributionReport(w, o, func(app *workloads.App, fraction float64) (map[string]float64, error) {
		prof, err := core.AnalyzeOnline(app.Launches[0], fraction)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{}
		shares := prof.BlockShare()
		for i, s := range shares {
			if s > 0 {
				out[app.Launches[0].Program.Blocks[i].Key().String()] = s
			}
		}
		return out, nil
	})
}

// Fig11 compares warp-type distributions of all warps vs a 1% sample.
func Fig11(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 11: warp-type distribution — all warps vs 1% sample")
	return distributionReport(w, o, func(app *workloads.App, fraction float64) (map[string]float64, error) {
		prof, err := core.AnalyzeOnline(app.Launches[0], fraction)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{}
		for id, share := range prof.WarpTypeShare() {
			out[fmt.Sprintf("type-%x", id&0xffff)] = share
		}
		return out, nil
	})
}

func distributionReport(w io.Writer, o Options,
	dist func(app *workloads.App, fraction float64) (map[string]float64, error)) error {
	benches := []struct {
		name  string
		build appBuilder
	}{{"SC", obsSC}, {"SpMV", obsSPMV}}
	// One job per (bench, fraction), each on a private app: the analysis's
	// Fork writes the image's page-ownership bits, so jobs must not share one.
	fractions := []float64{1.0, 0.01}
	var tasks []engine.Task[map[string]float64]
	for _, bench := range benches {
		for _, fraction := range fractions {
			tasks = append(tasks, func(context.Context) (map[string]float64, error) {
				app, err := bench.build()
				if err != nil {
					return nil, err
				}
				return dist(app, fraction)
			})
		}
	}
	dists, err := engine.Collect(o.ctx(), o.Parallel, tasks, o.engineIns())
	if err != nil {
		return err
	}
	for bi, bench := range benches {
		all, sample := dists[bi*len(fractions)], dists[bi*len(fractions)+1]
		fmt.Fprintf(w, "%s: %d entries (all) vs %d entries (1%% sample); L1 divergence %.4f\n",
			bench.name, len(all), len(sample), l1Divergence(all, sample))
		keys := make([]string, 0, len(all))
		for k := range all {
			keys = append(keys, k)
		}
		// Largest share first; equal shares by key, so the rows do not follow
		// map iteration order.
		sort.Slice(keys, func(i, j int) bool {
			if all[keys[i]] != all[keys[j]] {
				return all[keys[i]] > all[keys[j]]
			}
			return keys[i] < keys[j]
		})
		if len(keys) > 8 {
			keys = keys[:8]
		}
		for _, k := range keys {
			fmt.Fprintf(w, "  %-12s all=%.4f sample=%.4f\n", k, all[k], sample[k])
		}
	}
	return nil
}

func l1Divergence(a, b map[string]float64) float64 {
	seen := map[string]bool{}
	d := 0.0
	for k, v := range a {
		d += abs(v - b[k])
		seen[k] = true
	}
	for k, v := range b {
		if !seen[k] {
			d += v
		}
	}
	return d
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
