package harness

import (
	"context"
	"fmt"
	"io"
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
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// This file regenerates the paper's observation figures (Section 3):
// Figure 1 (IPC over time), Figures 2/3 (basic-block execution time and the
// issue/retired relationship), Figure 4 (the same at warp level), Figure 6
// (GPU-BBV clusters vs kernel IPC for VGG-16 layers), and Figures 8/11
// (basic-block and warp-type distributions: all warps vs a 1% sample).

// obsSizes are moderate problem sizes so the observation runs finish fast.
const (
	obsReLUWarps = 16384
	// MM needs to exceed the R9 Nano's 2560 resident warps, or every warp
	// issues at t~0 and the warp-level issue/retire fit (Figure 4) is
	// degenerate.
	obsMMWarps   = 4096
	obsSPMVWarps = 2048
	obsSCWarps   = 1024
)

func mustBuild(app *workloads.App, err error) *workloads.App {
	if err != nil {
		panic(err)
	}
	return app
}

// Fig1IPCWindow is the IPC sampling window for the Figure 1 series.
const Fig1IPCWindow = 500

// Fig1Data runs the Figure 1 kernels in full detailed mode (one engine job
// per kernel, each on its own GPU instance) and returns their IPC series, in
// presentation order.
func Fig1Data(cfg gpu.Config, parallel int) ([]string, map[string][]float64, error) {
	names := []string{"ReLU", "MM"}
	apps := map[string]*workloads.App{
		"ReLU": mustBuild(workloads.BuildReLU(obsReLUWarps)),
		"MM":   mustBuild(workloads.BuildMM(obsMMWarps)),
	}
	tasks := make([]engine.Task[[]float64], len(names))
	for i, name := range names {
		name := name
		tasks[i] = func(context.Context) ([]float64, error) {
			col := stats.NewIPCCollector(Fig1IPCWindow)
			g := gpu.New(cfg)
			if _, err := g.RunDetailed(apps[name].Launches[0], col, nil); err != nil {
				return nil, err
			}
			return col.Series(), nil
		}
	}
	series, err := engine.Collect(context.Background(), parallel, tasks)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string][]float64, len(names))
	for i, name := range names {
		out[name] = series[i]
	}
	return names, out, nil
}

// Fig1 prints Fig1Data's IPC series of a stabilizing kernel (ReLU) and a
// fluctuating one (MM), reproducing Observation 1/2.
func Fig1(w io.Writer, names []string, data map[string][]float64) {
	fmt.Fprintf(w, "# Figure 1: IPC over time (window = %d cycles)\n", Fig1IPCWindow)
	for _, name := range names {
		series := data[name]
		// The steady-state cv (second half of the run) separates "IPC
		// stabilizes after warm-up" from "IPC keeps fluctuating", which is
		// the distinction Observation 2 draws.
		steady := series[len(series)/2:]
		fmt.Fprintf(w, "%s: %d windows, mean IPC %.2f, cv %.3f, steady-half cv %.3f\n",
			name, len(series), stats.Mean(series), cv(series), cv(steady))
		fmt.Fprintf(w, "  IPC over time: %s\n", sparkline(series, 60))
		printSeries(w, name, series, 24)
	}
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
	timing.NopObserver
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

func sampleBlocks(cfg gpu.Config, app *workloads.App) (*blockSampler, error) {
	target, err := dominantBlock(app)
	if err != nil {
		return nil, err
	}
	s := &blockSampler{targetBlock: target, cap: 1 << 20}
	g := gpu.New(cfg)
	if _, err := g.RunDetailed(app.Launches[0], s, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// obsBenchNames is the regular/irregular pair Figures 2-4 analyze.
var obsBenchNames = []string{"MM", "SpMV"}

// ObsSamples holds the detailed block/warp samples of the regular/irregular
// pair (obsBenchNames order) that Figures 2-4 all print from.
type ObsSamples []*blockSampler

// SampleObs runs the detailed block/warp sampling for MM and SpMV as
// parallel engine jobs (each builds its own app and GPU).
func SampleObs(cfg gpu.Config, parallel int) (ObsSamples, error) {
	builds := []func() (*workloads.App, error){
		func() (*workloads.App, error) { return workloads.BuildMM(obsMMWarps) },
		func() (*workloads.App, error) { return workloads.BuildSPMV(obsSPMVWarps) },
	}
	tasks := make([]engine.Task[*blockSampler], len(builds))
	for i, build := range builds {
		build := build
		tasks[i] = func(context.Context) (*blockSampler, error) {
			app, err := build()
			if err != nil {
				return nil, err
			}
			return sampleBlocks(cfg, app)
		}
	}
	return engine.Collect(context.Background(), parallel, tasks)
}

// Fig2 prints the execution-time series and global variance of the
// dominating basic block for MM (regular) and SpMV (irregular).
func Fig2(w io.Writer, samples ObsSamples) {
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
}

// Fig3 fits the least-squares line of the dominating block's issue/retired
// relationship (slope should approach 1 once contention stabilizes).
func Fig3(w io.Writer, samples ObsSamples) {
	fmt.Fprintln(w, "# Figure 3: dominating basic block issue vs retired time (least-squares)")
	for i, s := range samples {
		a, b := fitPairs(s.BlockPairs)
		aTail, _ := fitTail(s.BlockPairs, 2048)
		fmt.Fprintf(w, "%s: retired = %.4f * issue + %.1f over %d samples; tail-window slope %.4f\n",
			obsBenchNames[i], a, b, len(s.BlockPairs), aTail)
	}
}

// Fig4 does the same at warp level: regular applications' slope approaches
// 1, irregular ones deviate.
func Fig4(w io.Writer, samples ObsSamples) {
	fmt.Fprintln(w, "# Figure 4: warp issue vs retired time (least-squares)")
	for i, s := range samples {
		a, b := fitPairs(s.WarpPairs)
		aTail, _ := fitTail(s.WarpPairs, 1024)
		fmt.Fprintf(w, "%s: retired = %.4f * issue + %.1f over %d warps; tail-window slope %.4f\n",
			obsBenchNames[i], a, b, len(s.WarpPairs), aTail)
	}
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
// should have similar IPC (Observation 5).
func Fig6(w io.Writer, cfg gpu.Config, sc dnn.Scale) error {
	fmt.Fprintln(w, "# Figure 6: VGG-16 kernels clustered by GPU BBV vs their IPC")
	app, err := dnn.BuildVGG(16, sc)
	if err != nil {
		return err
	}
	type kinfo struct {
		name string
		g    bbv.GPUBBV
		ipc  float64
	}
	// The layer kernels must run serially: they share the app's memory
	// image, and layer k+1 reads layer k's outputs (both the functional
	// analysis and the detailed run execute stores). This loop is therefore
	// a chain, not a fan-out — the parallel axis here would be whole apps.
	var infos []kinfo
	g := gpu.New(cfg)
	for _, l := range app.Launches {
		prof, err := core.AnalyzeOnline(l, 0.01)
		if err != nil {
			return err
		}
		res, err := (gpu.FullRunner{}).RunKernel(g, l)
		if err != nil {
			return err
		}
		infos = append(infos, kinfo{name: l.Name, g: prof.GPU, ipc: res.IPC()})
	}
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
			if cluster[j] < 0 && bbv.Distance(infos[i].g, infos[j].g) < threshold {
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
		fmt.Fprintf(w, "%-8d %-10s %8.2f\n", cluster[i], infos[i].name, infos[i].ipc)
	}
	return nil
}

// Fig8 compares the basic-block instruction distribution of all warps vs a
// 1% sample for SC (regular) and SpMV (irregular).
func Fig8(w io.Writer, parallel int) error {
	fmt.Fprintln(w, "# Figure 8: basic-block distribution — all warps vs 1% sample")
	return distributionReport(w, parallel, func(app *workloads.App, fraction float64) (map[string]float64, error) {
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
func Fig11(w io.Writer, parallel int) error {
	fmt.Fprintln(w, "# Figure 11: warp-type distribution — all warps vs 1% sample")
	return distributionReport(w, parallel, func(app *workloads.App, fraction float64) (map[string]float64, error) {
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

func distributionReport(w io.Writer, parallel int,
	dist func(app *workloads.App, fraction float64) (map[string]float64, error)) error {
	benches := []struct {
		name  string
		build func() (*workloads.App, error)
	}{
		{"SC", func() (*workloads.App, error) { return workloads.BuildSC(obsSCWarps) }},
		{"SpMV", func() (*workloads.App, error) { return workloads.BuildSPMV(obsSPMVWarps) }},
	}
	// One job per (bench, fraction). Each job builds a private app: the
	// functional analysis executes stores into the app's memory image, so
	// two jobs must never share one.
	fractions := []float64{1.0, 0.01}
	var tasks []engine.Task[map[string]float64]
	for _, bench := range benches {
		build := bench.build
		for _, fraction := range fractions {
			fraction := fraction
			tasks = append(tasks, func(context.Context) (map[string]float64, error) {
				app, err := build()
				if err != nil {
					return nil, err
				}
				return dist(app, fraction)
			})
		}
	}
	dists, err := engine.Collect(context.Background(), parallel, tasks)
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
