package gpu

import (
	"time"

	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

// GPU is one simulated device. It owns the (stateful) memory-hierarchy
// timing model; a fresh timing machine is created per kernel so each kernel
// starts at cycle zero. GPUs are not safe for concurrent use.
//
// The GPU also carries the run's telemetry sinks. Every RunKernel receives
// the GPU, so a runner reads its sinks from there (Metrics, Log) and a
// wrapper around the runner cannot hide them.
type GPU struct {
	cfg     Config
	hier    *mem.Hierarchy
	metrics *obs.Registry
	log     *obs.Logger
}

// New builds a GPU from a configuration.
func New(cfg Config) *GPU {
	return &GPU{cfg: cfg, hier: mem.NewHierarchy(cfg.Memory)}
}

// Config returns the GPU's configuration.
func (g *GPU) Config() Config { return g.cfg }

// Hierarchy exposes the memory hierarchy (observers and tests use it).
func (g *GPU) Hierarchy() *mem.Hierarchy { return g.hier }

// SetMetrics attaches a telemetry registry: the memory hierarchy, every
// timing machine this GPU creates and the runner publish their cumulative
// stats into it.
func (g *GPU) SetMetrics(reg *obs.Registry) {
	g.metrics = reg
	g.hier.SetMetrics(reg)
}

// SetLog attaches a structured logger; every timing machine this GPU
// creates emits a Debug run summary through it, and the runner logs its
// per-kernel decisions.
func (g *GPU) SetLog(l *obs.Logger) { g.log = l }

// Metrics returns the attached registry; nil (a no-op registry) when none.
func (g *GPU) Metrics() *obs.Registry { return g.metrics }

// Log returns the attached logger; nil (a no-op logger) when none.
func (g *GPU) Log() *obs.Logger { return g.log }

// RunDetailed simulates the launch in detailed mode. obs subscribes to timing
// events (the zero Observer: none); gate, when non-nil, is polled before each
// workgroup dispatch and stops detailed simulation when it returns true.
// Caches are reset so every kernel starts cold, which keeps repeated kernels
// bit-identical (the property kernel-sampling exploits).
func (g *GPU) RunDetailed(l *kernel.Launch, obs timing.Observer, gate func() bool) (timing.Result, error) {
	g.hier.Reset()
	m := timing.NewMachine(g.cfg.Compute, g.hier, obs)
	m.SetMetrics(g.metrics)
	m.SetLog(g.log)
	if gate != nil {
		m.SetStopDispatch(gate)
	}
	return m.Run(l)
}

// The tiers of the two runners below. Every other tier name is a constant of
// the package whose runner reports it (core, baseline/pka, baseline/tbpoint).
const (
	TierFull       = "full"
	TierFunctional = "functional"
)

// KernelResult is the outcome of running one kernel under some runner.
type KernelResult struct {
	// SimTime is the kernel's (measured or predicted) execution time in
	// cycles.
	SimTime event.Time
	// Insts is the kernel's total dynamic warp-instruction count (measured,
	// or predicted for skipped portions).
	Insts uint64
	// DetailedInsts counts instructions that went through the detailed
	// timing model.
	DetailedInsts uint64
	// Mode names the tier that produced SimTime (TierFull, core.TierBB, …).
	Mode string
	// Stale reports that the result predicts workgroups the runner never
	// executed, so their outputs are missing from the memory image.
	Stale bool
	// Wall is the host time spent producing this result.
	Wall time.Duration
}

// IPC returns warp instructions per cycle.
func (r KernelResult) IPC() float64 {
	if r.SimTime == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.SimTime)
}

// Runner executes kernels under some simulation methodology. Implementations
// are the full-detailed runner below, the Photon controller
// (internal/core) and the PKA baseline (internal/baseline/pka).
type Runner interface {
	Name() string
	RunKernel(g *GPU, l *kernel.Launch) (KernelResult, error)
}

// FullRunner simulates every kernel entirely in detailed mode; it is the
// accuracy and wall-time baseline ("Full detailed MGPUSim" in the figures).
type FullRunner struct {
	// Observer subscribes to timing events (used by the observation
	// experiments); the zero value subscribes to none.
	Observer timing.Observer
}

// Name implements Runner.
func (FullRunner) Name() string { return TierFull }

// RunKernel implements Runner.
func (f FullRunner) RunKernel(g *GPU, l *kernel.Launch) (KernelResult, error) {
	start := time.Now()
	res, err := g.RunDetailed(l, f.Observer, nil)
	if err != nil {
		return KernelResult{}, err
	}
	return KernelResult{
		SimTime:       res.EndTime,
		Insts:         res.InstCount,
		DetailedInsts: res.InstCount,
		Mode:          TierFull,
		Wall:          time.Since(start),
	}, nil
}

// FunctionalRunner runs kernels functionally only (no timing); it reports a
// zero SimTime and exists for emulator validation and instruction counting.
type FunctionalRunner struct{}

// Name implements Runner.
func (FunctionalRunner) Name() string { return TierFunctional }

// RunKernel implements Runner.
func (FunctionalRunner) RunKernel(g *GPU, l *kernel.Launch) (KernelResult, error) {
	start := time.Now()
	insts, err := emu.RunKernelFunctional(l)
	if err != nil {
		return KernelResult{}, err
	}
	return KernelResult{Insts: insts, Mode: TierFunctional, Wall: time.Since(start)}, nil
}
