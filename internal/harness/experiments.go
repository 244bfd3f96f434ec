package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"photon/internal/core"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/stats"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// Options scales the experiment sweeps. Quick mode trims each benchmark to
// its smallest figure size so a full regeneration finishes in minutes.
type Options struct {
	Quick bool
	// PRNodes sets the PageRank size for Figure 16 (PR-X).
	PRNodes int
	// DNNScale is the VGG/ResNet reduction (see dnn.DefaultScale).
	DNNScale dnn.Scale
	// Params are Photon's knobs.
	Params core.Params
	// JSON, when non-nil, additionally receives every comparison as a
	// JSON-lines Record (the artifact's structured output format).
	JSON *JSONSink
	// Parallel is the worker count for each experiment's job graph;
	// values <= 0 mean one worker per CPU (GOMAXPROCS).
	Parallel int
	// FixedWall pins host wall times to constants in emitted rows and
	// records, making output byte-identical across runs and worker counts
	// (used when diffing serial vs parallel sweeps).
	FixedWall bool
	// Baselines shares memoized full-detailed runs across experiments.
	// When nil, each sweep falls back to a private cache, so baselines are
	// still simulated at most once within one experiment.
	Baselines *BaselineCache
	// Check audits every sampled run a sweep executes (AppObs.Check, the
	// CLIs' -check); the first violation fails the sweep at its kernel.
	// Memoized full-detailed baselines are not audited: BaselineCache runs
	// them outside the sweep's observation and shares them across experiments.
	Check bool
	// Metrics, when non-nil, receives cumulative telemetry from the engine
	// and from every sampled-runner simulation (cache/DRAM stats, per-CU
	// timing counters, Photon tier decisions). Metrics output is a separate
	// artifact and exempt from the byte-identical guarantee.
	Metrics *obs.Registry
	// Trace, when non-nil, collects Chrome trace-event spans for engine jobs
	// and simulated kernels.
	Trace *obs.TraceBuffer
	// Log, when non-nil, receives structured records from the engine, the
	// timing machines and the Photon controller. Logging is exempt from the
	// byte-identical guarantee (it goes to stderr, a hub or a flight ring
	// composed into the logger, never stdout), and at the default Info level
	// the per-kernel paths emit nothing.
	Log *obs.Logger
	// Accuracy, when non-nil, receives one ledger record per kernel launch
	// of every sampled run (the accuracy.jsonl artifact).
	Accuracy *AccuracySink
	// Context, when non-nil, bounds the experiment: cancellation or a
	// deadline stops the job graph at the next task boundary and stops
	// in-flight simulations at the next kernel launch. photon-serve sets a
	// per-request context here; the CLIs leave it nil (background).
	Context context.Context
	// SVGDir, when non-empty, makes fig1 also render its IPC series as
	// fig1_ipc.svg in this directory (photon-bench -svg).
	SVGDir string
}

// ctx resolves the experiment context (background when unset).
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// DefaultOptions returns the full-experiment configuration.
func DefaultOptions() Options {
	return Options{
		PRNodes:  PageRank.Default,
		DNNScale: dnn.DefaultScale(),
		Params:   core.DefaultParams(),
	}
}

func (o Options) sizes(spec workloads.Spec) []int {
	if o.Quick {
		// Quick mode keeps one mid-grid size per benchmark: large enough
		// that sampling has queued work to skip, small enough to be fast.
		return spec.Sizes[len(spec.Sizes)/2 : len(spec.Sizes)/2+1]
	}
	return spec.Sizes
}

// specPoints enumerates the sweep cells of a benchmark registry under o's
// size policy.
func (o Options) specPoints(specs []workloads.Spec) []Point {
	var pts []Point
	for _, spec := range specs {
		spec := spec
		for _, size := range o.sizes(spec) {
			size := size
			pts = append(pts, Point{
				Bench: spec.Abbr,
				Size:  size,
				Build: func() (*workloads.App, error) { return spec.Build(size) },
			})
		}
	}
	return pts
}

// Fig13 regenerates Figure 13: kernel time and wall time for full detailed
// MGPUSim, PKA and Photon on the R9 Nano across the single-kernel
// benchmarks and problem sizes.
func Fig13(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 13: R9 Nano — Full vs PKA vs Photon (single-kernel benchmarks)")
	PrintHeader(w)
	return o.RunSweep(w, Sweep{
		Experiment: "fig13",
		Config:     gpu.R9Nano(),
		Factories:  o.factories("pka", "photon"),
		Points:     o.specPoints(workloads.Table2()),
	})
}

// Fig14 regenerates Figure 14: Full vs Photon on the MI100 configuration.
func Fig14(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 14: MI100 — Full vs Photon (micro-architecture independence)")
	PrintHeader(w)
	return o.RunSweep(w, Sweep{
		Experiment: "fig14",
		Config:     gpu.MI100(),
		Factories:  o.factories("photon"),
		Points:     o.specPoints(workloads.Table2()),
	})
}

// Fig15 regenerates Figure 15: the effect of each sampling level —
// BB-sampling only, warp-sampling only, and full Photon.
func Fig15(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 15: sampling levels — BB-only, warp-only, Photon (R9 Nano)")
	PrintHeader(w)
	return o.RunSweep(w, Sweep{
		Experiment: "fig15",
		Config:     gpu.R9Nano(),
		Factories:  o.factories("bb", "warp", "photon"),
		Points:     o.specPoints(workloads.Table2()),
	})
}

// realWorldPoints lists the Figure 16 applications: PageRank at o.PRNodes
// and every fixed-shape DNN of the workload catalog, in catalog order.
func realWorldPoints(o Options) []Point {
	pts := []Point{PageRank.Point(o.PRNodes, o.DNNScale)}
	for _, wl := range catalog {
		if wl.fixedShape() {
			pts = append(pts, wl.Point(0, o.DNNScale))
		}
	}
	if o.Quick {
		return pts[:4]
	}
	return pts
}

// Fig16 regenerates Figure 16: Full vs Photon on the real-world
// applications (PageRank, VGG, ResNet).
func Fig16(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 16: real-world applications — Full vs Photon (R9 Nano)")
	PrintHeader(w)
	return o.RunSweep(w, Sweep{
		Experiment: "fig16",
		Config:     gpu.R9Nano(),
		Factories:  o.factories("photon"),
		Points:     realWorldPoints(o),
	})
}

// Fig17 regenerates Figure 17: per-layer error and speedup of VGG-16 under
// kernel-sampling, kernel+warp-sampling and full Photon. It is a one-point
// sweep — the full VGG-16 baseline comes from the shared cache (the same
// cell Figure 16 measures) and the three sampling variants run as parallel
// jobs — whose rows are collected into a per-layer table instead of printed.
func Fig17(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Figure 17: VGG-16 per-layer error and speedup by sampling level (R9 Nano)")
	var comparisons []Comparison
	err := o.runSweep(Sweep{
		Experiment: "fig17",
		Config:     gpu.R9Nano(),
		Factories: []RunnerFactory{
			PhotonFactory("kernel", o.Params, core.Levels{Kernel: true}),
			PhotonFactory("kernel+warp", o.Params, core.Levels{Kernel: true, Warp: true}),
			o.factories("photon")[0],
		},
		Points: []Point{vgg(16).Point(0, o.DNNScale)},
	}, func(c Comparison) { comparisons = append(comparisons, c) })
	if err != nil {
		return err
	}
	full, results := comparisons[0].Full, comparisons[1:]

	fmt.Fprintf(w, "%-10s %14s", "layer", "full_cycles")
	for _, r := range results {
		fmt.Fprintf(w, " %12s %6s", r.Runner+"_err%", "mode")
	}
	fmt.Fprintln(w)
	for k, fr := range full.PerKernel {
		fmt.Fprintf(w, "%-10s %14d", fr.Name, fr.SimTime)
		for _, r := range results {
			pr := r.Sampled.PerKernel[k]
			errPct := stats.AbsErrorPct(float64(fr.SimTime), float64(pr.SimTime))
			fmt.Fprintf(w, " %12.2f %6s", errPct, shortMode(pr.Mode))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s %14d", "TOTAL", full.KernelTime)
	for _, r := range results {
		fmt.Fprintf(w, " %12.2f %6s", r.ErrPct(), "-")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "whole-inference speedups:")
	for _, r := range results {
		fmt.Fprintf(w, " %s=%.2fx", r.Runner, r.Speedup())
	}
	fmt.Fprintln(w)
	return nil
}

// shortModes abbreviates Photon's tiers in Fig. 17's mode columns.
var shortModes = map[string]string{core.TierKernel: "K", core.TierWarp: "W", core.TierBB: "BB", gpu.TierFull: "F"}

func shortMode(m string) string {
	if short, ok := shortModes[m]; ok {
		return short
	}
	return m
}

// Table1 prints the two hardware configurations (paper Table 1).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: GPU configurations")
	for _, cfg := range []gpu.Config{gpu.R9Nano(), gpu.MI100()} {
		m := cfg.Memory
		fmt.Fprintf(w, "%s:\n", cfg.Name)
		fmt.Fprintf(w, "  CU               %.1fGHz, %d per GPU (%d SIMDs x %d warp slots)\n",
			cfg.ClockGHz, cfg.Compute.NumCUs, cfg.Compute.SIMDsPerCU, cfg.Compute.WarpSlotsPerSIMD)
		fmt.Fprintf(w, "  L1 Vector Cache  %dKB %d-way, %d per GPU\n",
			m.L1V.SizeBytes/1024, m.L1V.Ways, m.NumCUs)
		fmt.Fprintf(w, "  L1 Inst Cache    %dKB %d-way, %d per GPU\n",
			m.L1I.SizeBytes/1024, m.L1I.Ways, m.NumCUs/m.CUsPerScalarBlock)
		fmt.Fprintf(w, "  L1 Scalar Cache  %dKB %d-way, %d per GPU\n",
			m.L1K.SizeBytes/1024, m.L1K.Ways, m.NumCUs/m.CUsPerScalarBlock)
		fmt.Fprintf(w, "  L2 Cache         %dKB %d-way, %d banks per GPU\n",
			m.L2.SizeBytes/1024, m.L2.Ways, m.L2Banks)
		fmt.Fprintf(w, "  DRAM             %dGB, %d banks\n",
			cfg.DRAMBytes>>30, m.DRAM.Banks)
	}
}

// Table2 prints the benchmark list (paper Table 2).
func Table2(w io.Writer) {
	fmt.Fprintln(w, "# Table 2: benchmarks")
	fmt.Fprintf(w, "%-8s %-16s %-45s %s\n", "abbr", "suite", "description", "sizes (warps)")
	for _, s := range workloads.Table2() {
		fmt.Fprintf(w, "%-8s %-16s %-45s %v\n", s.Abbr, s.Suite, s.Description, s.Sizes)
	}
	fmt.Fprintf(w, "%-8s %-16s %-45s %s\n", "PR-X", "Hetero-Mark", "PageRank with X nodes", "node count")
	fmt.Fprintf(w, "%-8s %-16s %-45s %s\n", "VGG", "-", "VGG-16 and VGG-19; batchsize=1", "fixed")
	fmt.Fprintf(w, "%-8s %-16s %-45s %s\n", "ResNet", "-", "ResNet-18 (34, 50, 101, 152); batchsize=1", "fixed")
}

// Offline regenerates the paper's Section 6.3 online/offline tradeoff: the
// first Photon run of VGG-16 populates the analysis store; the second run
// reuses it, shaving the online-analysis cost off the wall time. The two
// runs are inherently sequential (the second consumes the first's store),
// so this experiment does not use the job engine; each still publishes into
// the experiment's sinks and audit switch, spans on threads 0 and 1.
func Offline(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Section 6.3: online vs offline Photon (VGG-16 wall time)")
	cfg := gpu.R9Nano()
	store := core.NewAnalysisStore()

	runWith := func(label string, tid int) (AppResult, error) {
		app, err := dnn.BuildVGG(16, o.DNNScale)
		if err != nil {
			return AppResult{}, err
		}
		ph := core.MustNew(cfg, o.Params, core.AllLevels())
		ph.SetStore(store)
		res, err := RunAppInstrumented(o.ctx(), cfg, app, ph, o.appObs(tid))
		if err != nil {
			return AppResult{}, err
		}
		fmt.Fprintf(w, "%-18s kernel_time=%d wall=%s store: %d profiles, %d hits\n",
			label, res.KernelTime, res.Wall.Round(time.Millisecond), store.Len(), store.Hits())
		return res, nil
	}
	online, err := runWith("photon (online)", 0)
	if err != nil {
		return err
	}
	offline, err := runWith("photon (offline)", 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "offline speedup over online: %.2fx\n",
		float64(online.Wall)/float64(offline.Wall))
	return nil
}

// WaitcntAblation evaluates the paper's future-work basic-block variant that
// also ends blocks at s_waitcnt, on the two workloads Observation 3 uses.
func WaitcntAblation(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Ablation: basic blocks split at s_waitcnt (paper future work)")
	PrintHeader(w)
	var pts []Point
	for _, bench := range []struct {
		name string
		size int
	}{
		{"MM", 4096}, {"SPMV", 8192},
	} {
		spec, err := workloads.FindSpec(bench.name)
		if err != nil {
			return err
		}
		for _, split := range []bool{false, true} {
			split := split
			size := bench.size
			build := func() (*workloads.App, error) {
				app, err := spec.Build(size)
				if err != nil {
					return nil, err
				}
				if split {
					app = app.WithBlockOptions(isa.BlockOptions{SplitAtWaitcnt: true})
				}
				return app, nil
			}
			factories := o.factories("bb")
			if split {
				factories = []RunnerFactory{PhotonFactory("bb-waitcnt", o.Params, core.Levels{BB: true})}
			}
			pts = append(pts, Point{
				Bench:     bench.name,
				Size:      size,
				Build:     build,
				Block:     isa.BlockOptions{SplitAtWaitcnt: split},
				Factories: factories,
			})
		}
	}
	return o.RunSweep(w, Sweep{
		Experiment: "waitcnt",
		Config:     gpu.R9Nano(),
		Points:     pts,
	})
}

// ExtensionsExperiment runs Photon on the extension workloads (histogram,
// KMeans, BFS) — atomics-heavy programs outside the paper's Table 2 — to
// check the methodology generalizes beyond the original suite.
func ExtensionsExperiment(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Extensions: Photon on atomics workloads (HIST, KMEANS, BFS)")
	PrintHeader(w)
	return o.RunSweep(w, Sweep{
		Experiment: "extensions",
		Config:     gpu.R9Nano(),
		Factories:  o.factories("photon"),
		Points:     o.specPoints(workloads.Extensions()),
	})
}

// Baselines compares all sampled methodologies side by side — PKA, the
// TBPoint reconstruction, and Photon — on one representative size per
// benchmark (an extension beyond the paper's Full-vs-PKA-vs-Photon figure).
func Baselines(w io.Writer, o Options) error {
	fmt.Fprintln(w, "# Baselines: PKA vs TBPoint vs Photon (R9 Nano, one size per benchmark)")
	PrintHeader(w)
	var pts []Point
	for _, spec := range workloads.Table2() {
		spec := spec
		size := spec.Sizes[len(spec.Sizes)-1]
		pts = append(pts, Point{
			Bench: spec.Abbr,
			Size:  size,
			Build: func() (*workloads.App, error) { return spec.Build(size) },
		})
	}
	return o.RunSweep(w, Sweep{
		Experiment: "baselines",
		Config:     gpu.R9Nano(),
		Factories:  o.factories("pka", "tbpoint", "photon"),
		Points:     pts,
	})
}
