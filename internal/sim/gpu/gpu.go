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
// starts at cycle zero. GPUs are not safe for concurrent use, but distinct
// GPUs are independent: each kernel starts cold, so two GPUs of the same
// Config may run kernels of one app concurrently, each over its own memory
// image (a mem.Flat.Fork), and publish into one shared metrics registry.
//
// The GPU also carries the run's telemetry sinks. A runner's Plan and its
// plan's Execute receive a GPU, so a runner reads its sinks from there (Metrics, Log) and a
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
	// Wall is the host time of the kernel's trace span, stamped by the run
	// loop (DESIGN.md "Kernel-level parallelism", Wall). Kernels that ran on
	// different GPUs may overlap, so a sum of walls is host time spent, not
	// elapsed time.
	Wall time.Duration
}

// IPC returns warp instructions per cycle.
func (r KernelResult) IPC() float64 {
	if r.SimTime == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.SimTime)
}

// Runner executes kernels under some simulation methodology:
// FullRunner and FunctionalRunner below, the Photon controller
// (internal/core) and the PKA and TBPoint baselines (internal/baseline/pka,
// internal/baseline/tbpoint). Its one kernel entry point is Plan, made on
// the run's goroutine in launch order; g lends the plan the run's
// configuration and sinks, and the plan never simulates on it. RunKernel
// runs one kernel serially. Runners leave KernelResult.Wall zero: the run
// loop times the kernel.
type Runner interface {
	Name() string
	Plan(g *GPU, l *kernel.Launch) (*Plan, error)
}

// RunKernel is the serial run of one kernel under r: its Plan, then Run.
func RunKernel(r Runner, g *GPU, l *kernel.Launch) (KernelResult, error) {
	p, err := r.Plan(g, l)
	if err != nil {
		return KernelResult{}, err
	}
	return p.Run(g, l)
}

// Plan is one kernel's run split in three steps that a pipelined run may
// pull apart (DESIGN.md "Kernel-level parallelism"). A runner's Plan method
// makes it from what is known before the kernel runs; Execute simulates the
// kernel; Commit finishes it, in launch order.
type Plan struct {
	// Execute simulates the kernel on g over l's image. Nil when the
	// functional advance of the image is the kernel's whole execution.
	Execute func(g *GPU, l *kernel.Launch) (KernelResult, error)
	// Overlap is set when Execute touches none of the runner's cross-kernel
	// state and, for a program without atomics, leaves exactly the image
	// the functional emulator would: it may run on another GPU while the
	// run advances the image functionally: timing-only over no image for
	// an independent program (kernel.StepAddresses), and otherwise over a
	// Fork of the image at launch, replaying tapes it records on the fork
	// (kernel.StepTape). The run loop keeps a program with an atomic
	// inline, whatever its plan says: the values an atomic returns follow
	// the detailed run's order.
	Overlap bool
	// Pass, when set, is a functional pass whose tally Execute can read the
	// workgroups after its gate from. A run loop may start it over a fork
	// of the image at launch beside an inline Execute, for a program
	// without atomics, and then run an independent program's Execute
	// timing-only over no image, leaving the image to the pass (see Pass);
	// Run never does.
	Pass *Pass
	// Advanced, when set, receives the instruction count of a functional
	// advance of the image past the kernel, before the next kernel is
	// planned.
	Advanced func(insts uint64)
	// Commit, when set, turns Execute's result into the kernel's. A plan
	// with no Execute commits the zero result with Insts set to the
	// advance's count.
	Commit func(r KernelResult) (KernelResult, error)
}

// Run executes the plan serially: Execute on g over l's own image, or the
// functional advance when the plan needs none, then Commit.
func (p *Plan) Run(g *GPU, l *kernel.Launch) (r KernelResult, err error) {
	if p.Execute != nil {
		r, err = p.Execute(g, l)
	} else if r.Insts, err = emu.RunKernelFunctional(l); err == nil && p.Advanced != nil {
		p.Advanced(r.Insts)
	}
	if err != nil || p.Commit == nil {
		return r, err
	}
	return p.Commit(r)
}

// Complete is the result of a detailed run that dispatched every workgroup,
// under the tier name tier: all of its time and instructions are measured.
func Complete(res timing.Result, tier string) KernelResult {
	return KernelResult{SimTime: res.EndTime, Insts: res.InstCount, DetailedInsts: res.InstCount, Mode: tier}
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

// Plan implements Runner: the kernel runs in detail, and may overlap its
// neighbours unless an observer listens, since observers keep their state
// across kernels.
func (f FullRunner) Plan(*GPU, *kernel.Launch) (*Plan, error) {
	o := f.Observer
	return &Plan{Execute: f.execute,
		Overlap: o.WarpStart == nil && o.WarpRetired == nil && o.InstIssued == nil && o.BlockRetired == nil}, nil
}

func (f FullRunner) execute(g *GPU, l *kernel.Launch) (KernelResult, error) {
	res, err := g.RunDetailed(l, f.Observer, nil)
	if err != nil {
		return KernelResult{}, err
	}
	return Complete(res, TierFull), nil
}

// FunctionalRunner runs kernels functionally only (no timing); it reports a
// zero SimTime and exists for emulator validation and instruction counting.
type FunctionalRunner struct{}

// Name implements Runner.
func (FunctionalRunner) Name() string { return TierFunctional }

// Plan implements Runner: the functional advance is the whole kernel.
func (FunctionalRunner) Plan(*GPU, *kernel.Launch) (*Plan, error) {
	return &Plan{Commit: func(r KernelResult) (KernelResult, error) {
		r.Mode = TierFunctional
		return r, nil
	}}, nil
}
