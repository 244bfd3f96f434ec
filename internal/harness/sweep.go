package harness

import (
	"context"
	"io"
	"time"

	"photon/internal/harness/engine"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/workloads"
)

// Point is one (benchmark, size) cell of a sweep. Build must return a fresh
// App on every call: each job simulates its own instance, which is what
// keeps the job graph free of shared mutable state.
type Point struct {
	// Name is the canonical catalog name when the point came from the
	// workload catalog (Workload.Point); empty for cells an experiment
	// builds by hand. Bench is the row label.
	Name  string
	Bench string
	Size  int
	Build func() (*workloads.App, error)
	// Block tags the baseline cache key when Build applies non-default
	// basic-block options (the waitcnt ablation), so those baselines are
	// never conflated with default-compiled ones.
	Block isa.BlockOptions
	// Factories, when non-nil, overrides the sweep-level factory list for
	// this point.
	Factories []RunnerFactory
}

// Sweep is one experiment expressed declaratively: a GPU configuration, the
// points to measure, and the sampled runners to compare against the
// full-detailed baseline at every point. The harness turns a Sweep into a
// job graph — one job for the baseline row and one per (point, factory) —
// and executes it on the engine's worker pool.
type Sweep struct {
	Experiment string
	Config     gpu.Config
	Factories  []RunnerFactory
	Points     []Point
}

// RunSweep executes the sweep's jobs on up to o.Parallel workers (GOMAXPROCS
// when <= 0) and writes one text row plus one JSON record per job. Output is
// emitted in plan order regardless of completion order, so the rows — and
// with FixedWall set, the bytes — are identical for any worker count. Full
// baselines are memoized in o.Baselines (or a sweep-private cache when nil):
// each (config, bench, size, block-options) cell is simulated exactly once
// and shared by every job and every later sweep that needs it.
func (o Options) RunSweep(w io.Writer, s Sweep) error {
	return o.runSweep(s, func(c Comparison) { PrintRow(w, c) })
}

// runSweep is RunSweep with the row printer as a parameter: row receives
// every comparison in plan order, next to the JSON record and the accuracy
// ledger entries the sweep emits for it.
func (o Options) runSweep(s Sweep, row func(Comparison)) error {
	cache := o.Baselines
	if cache == nil {
		cache = NewBaselineCache()
	}
	var tasks []engine.Task[Comparison]
	for _, pt := range s.Points {
		pt := pt
		baseline := func(ctx context.Context) (AppResult, error) {
			key := BaselineKey{Config: s.Config.Name, Bench: pt.Bench, Size: pt.Size, Block: pt.Block}
			return cache.FullCtx(ctx, key, s.Config, pt.Build)
		}
		tasks = append(tasks, func(ctx context.Context) (Comparison, error) {
			full, err := baseline(ctx)
			if err != nil {
				return Comparison{}, err
			}
			return Comparison{Bench: pt.Bench, Size: pt.Size, Runner: BaselineMode, Full: full, Sampled: full}, nil
		})
		factories := pt.Factories
		if factories == nil {
			factories = s.Factories
		}
		for _, f := range factories {
			f := f
			tid := len(tasks)
			tasks = append(tasks, func(ctx context.Context) (Comparison, error) {
				full, err := baseline(ctx)
				if err != nil {
					return Comparison{}, err
				}
				app, err := pt.Build()
				if err != nil {
					return Comparison{}, err
				}
				res, err := RunAppInstrumented(ctx, s.Config, app, f.New(s.Config), o.appObs(tid))
				if err != nil {
					return Comparison{}, err
				}
				label := f.Label
				if label == "" {
					label = res.Runner
				}
				return Comparison{Bench: pt.Bench, Size: pt.Size, Runner: label, Full: full, Sampled: res}, nil
			})
		}
	}
	return engine.RunObserved(o.ctx(), o.Parallel, tasks, o.engineIns(),
		func(_ int, c Comparison, meta engine.JobMeta) error {
			c = o.normalize(c)
			rec := ToRecord(s.Experiment, c)
			rec.Worker = meta.Worker
			rec.JobWallMS = ms(meta.Wall)
			if o.FixedWall {
				rec.Worker, rec.JobWallMS = 0, 1.0
			}
			row(c)
			// The accuracy ledger rides the same plan-order callback, so its
			// records are deterministic for any worker count.
			for _, ar := range accuracyRecords(s.Experiment, c) {
				if err := o.Accuracy.Emit(ar); err != nil {
					return err
				}
			}
			return o.JSON.Emit(rec)
		})
}

// engineIns hands the experiment's sinks to the job engine.
func (o Options) engineIns() engine.Instrumentation {
	return engine.Instrumentation{Metrics: o.Metrics, Trace: o.Trace, Log: o.Log}
}

// appObs is the observability bundle of one application run an experiment
// executes: the experiment's sinks and audit switch, spans on thread tid.
func (o Options) appObs(tid int) AppObs {
	return AppObs{Metrics: o.Metrics, Trace: o.Trace, Log: o.Log, TID: tid, Check: o.Check}
}

// normalize applies the FixedWall pinning to a comparison before emission.
func (o Options) normalize(c Comparison) Comparison {
	if !o.FixedWall {
		return c
	}
	c.Full = fixWall(c.Full)
	c.Sampled = fixWall(c.Sampled)
	return c
}

// fixWall pins host wall times to constants so rows and records are
// byte-identical across runs and worker counts (wall time is the one
// nondeterministic quantity the harness reports). Per-app walls become 1 ms,
// making every speedup exactly 1.00; per-kernel walls become zero.
func fixWall(r AppResult) AppResult {
	r.Wall = time.Millisecond
	pk := make([]KernelRow, len(r.PerKernel))
	copy(pk, r.PerKernel)
	for i := range pk {
		pk[i].Wall = 0
	}
	r.PerKernel = pk
	return r
}
