package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"photon/internal/harness/engine"
	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/workloads"
)

// running counts the RunAppInstrumented calls in progress in this process.
// A run hands kernels to helpers only while it is the only one: a parallel
// sweep or a busy service already uses the CPUs.
var running atomic.Int32

// handedOff counts the kernels this process has run on a helper; tests read
// it to tell a pipelined run from a serial one.
var handedOff atomic.Int64

// passesUsed counts the functional passes whose tally a kernel read, so
// whose fork became the live image; tests read it as they read handedOff.
var passesUsed atomic.Int64

// timedPrefixes counts the inline kernels whose Execute ran timing-only
// over no image beside their started pass: the kernel's program is
// independent, so the pass, or the advance of its prefix, made the image.
// Tests read it as they read handedOff.
var timedPrefixes atomic.Int64

// timingOnly counts the hand-offs whose helper ran timing-only: the
// kernel's program is independent, so its run skips the values no timing
// decision reads, and needs no image. Tests read it as they read
// handedOff.
var timingOnly atomic.Int64

// eligible counts the launches mayHandOff admits, whether or not their run
// could spare a CPU: a serial run counts the launches its pipelined run
// hands off. Tests read it as they read handedOff.
var eligible atomic.Int64

// pipeline runs the kernels of one app and merges their results in kernel
// order (DESIGN.md "Kernel-level parallelism"). It asks the runner for each
// kernel's plan, on the run's goroutine in launch order. A kernel whose plan
// allows it may go to a helper goroutine, which runs it on its own GPU over
// a copy-on-write fork of the image at launch, while the run's goroutine
// advances the live image with the functional emulator. The fork is
// dropped, so when the kernel's program is independent
// (isa.Program.Independent) the helper runs timing-only over no image, and
// no fork is made. A kernel whose plan needs no Execute is that functional
// advance alone. Every other kernel runs inline on the live image, as a
// serial run would, with the functional pass its plan asks for over a fork
// beside it when the run may spare a CPU; beside a pass an independent
// program's kernel runs timing-only over no image, and the pass makes the
// image. Plans commit at merge, in launch order.
type pipeline struct {
	cfg    gpu.Config
	app    *workloads.App
	runner gpu.Runner
	ao     AppObs
	// window bounds the detailed runs in flight; 1 is the serial path.
	window int
	gpus   chan *gpu.GPU // idle GPUs; at most window are ever made
	made   int
	home   *gpu.GPU         // the first GPU made: it lends every plan the run's config and sinks
	tids   map[*gpu.GPU]int // the trace thread of each GPU's handed-off kernels
	queue  []*kernelRun     // not merged yet, in kernel order
	res    AppResult
}

// kernelRun is one kernel's run, audited on the GPU that ran it.
type kernelRun struct {
	l     *kernel.Launch // the app's launch, not its fork
	plan  *gpu.Plan
	tid   int // trace thread: ao.TID on the run's goroutine, its GPU's when handed off
	r     gpu.KernelResult
	start time.Time
	err   error
	done  chan struct{} // closed once r, start and err are set
}

func newPipeline(cfg gpu.Config, app *workloads.App, runner gpu.Runner, ao AppObs) *pipeline {
	window := runtime.GOMAXPROCS(0)
	p := &pipeline{cfg: cfg, app: app, runner: runner, ao: ao, window: window,
		gpus: make(chan *gpu.GPU, window), tids: map[*gpu.GPU]int{}, res: AppResult{Runner: runner.Name()}}
	p.home = p.gpu()
	p.gpus <- p.home
	return p
}

// overlaps reports whether launch l, planned as plan, may run on a helper
// over a fork of the image: its plan executes and may overlap, and its
// program has no atomic, whose returned values, and so the addresses that
// depend on them, follow the order the detailed run happens to execute it
// in.
func overlaps(plan *gpu.Plan, l *kernel.Launch) bool {
	return plan.Execute != nil && plan.Overlap && !hasAtomic(l)
}

// mayHandOff reports whether launch i of n, l, planned as plan, goes to a
// helper when its run may spare a CPU: it overlaps, and it is not the last
// launch unless its program is independent. Then a timing-only helper
// beside the functional advance takes less wall than one inline detailed
// run, whose values nothing after it reads.
func mayHandOff(plan *gpu.Plan, i, n int, l *kernel.Launch) bool {
	return overlaps(plan, l) && (i < n-1 || l.Program.Independent())
}

// hasAtomic reports whether l's program has an atomic: a run over a fork
// of its image need not leave the image the detailed run does.
func hasAtomic(l *kernel.Launch) bool {
	return slices.ContainsFunc(l.Program.Insts, func(in isa.Inst) bool { return in.Op.IsAtomic() })
}

// alone reports whether this run may use a second CPU: GOMAXPROCS is at
// least two, and no other run is in flight in the process.
func (p *pipeline) alone() bool { return p.window > 1 && running.Load() == 1 }

// step plans launch i and runs it.
func (p *pipeline) step(i int, l *kernel.Launch) error {
	start := time.Now()
	var plan *gpu.Plan
	err := engine.Try(func() (err error) {
		plan, err = p.runner.Plan(p.home, l)
		return err
	})
	if err != nil {
		return p.failAt(l, err)
	}
	hand := mayHandOff(plan, i, len(p.app.Launches), l)
	if hand {
		eligible.Add(1)
	}
	switch {
	case plan.Execute == nil:
		return p.advanceOnly(l, plan, start)
	case hand && p.alone():
		return p.handOff(l, plan)
	default:
		return p.inline(l, plan, start)
	}
}

// gpu returns an idle GPU, building one while fewer than window exist, and
// otherwise waits for a helper to finish.
func (p *pipeline) gpu() *gpu.GPU {
	select {
	case g := <-p.gpus:
		return g
	default:
	}
	if p.made < p.window {
		p.made++
		g := gpu.New(p.cfg)
		if p.ao.Metrics != nil { // wiring a registry walks every cache; skip it unobserved
			g.SetMetrics(p.ao.Metrics)
		}
		g.SetLog(p.ao.Log)
		p.tids[g] = 1<<16 + p.made // above any caller's TID (DESIGN.md "Trace threads")
		return g
	}
	return <-p.gpus
}

// run executes k's plan on g over l, k.l or its fork, and stamps the host
// time since k.start as the kernel's wall (runners leave it zero). Under
// Check it audits what the kernel left in g's hierarchy. A panic becomes the
// kernel's error, inline as on a helper, and g goes back to the pool:
// RunDetailed resets what a kernel leaves in it.
func (p *pipeline) run(g *gpu.GPU, l *kernel.Launch, k *kernelRun) {
	k.err = engine.Try(func() (err error) {
		k.r, err = k.plan.Execute(g, l)
		return err
	})
	k.r.Wall = time.Since(k.start)
	if k.err == nil && p.ao.Check {
		if err := g.Hierarchy().CheckConservation(); err != nil {
			k.err = fmt.Errorf("audit: %w", err)
		}
	}
	p.gpus <- g
}

// inline runs launch l on the live image, with its plan's functional pass
// beside it when one may start, then merges every earlier kernel and l, in
// that order. Beside a pass an independent program's run is timing-only
// over no image. Its span and wall cover its plan, which began at start,
// its run and the end of its pass, but not a wait for an idle GPU.
func (p *pipeline) inline(l *kernel.Launch, plan *gpu.Plan, start time.Time) error {
	planned := time.Since(start)
	g := p.gpu()
	k := kernelRun{l: l, plan: plan, tid: p.ao.TID, start: time.Now().Add(-planned)}
	pass := p.startPass(l, plan, p.tids[g])
	run := l
	if pass != nil && pass.timed != nil {
		run = pass.timed
	}
	p.run(g, run, &k)
	if err := p.endPass(l, pass, k.err == nil); k.err == nil {
		k.err = err
	}
	k.r.Wall = time.Since(k.start)
	if err := p.mergeAll(); err != nil {
		return err
	}
	return p.merge(&k)
}

// passRun is a functional pass the run loop started beside an inline
// kernel.
type passRun struct {
	*gpu.Pass
	fork *kernel.Launch
	// timed is the launch the kernel's Execute runs over when its program
	// is independent: timing-only, with no image. Nil otherwise.
	timed *kernel.Launch
	tid   int
	start time.Time
	wall  time.Duration // written by the pass's goroutine before it ends
}

// startPass starts the functional pass launch l's plan asks for, over a
// fork of the image at launch, when this run may spare a CPU and l's
// program has no atomic; it returns nil when no pass started. When l's
// program is independent, the pass alone moves values, and the kernel runs
// timing-only beside it. The pass's span goes on tid, the thread of the GPU
// that runs l, which no helper can take before the pass has ended.
func (p *pipeline) startPass(l *kernel.Launch, plan *gpu.Plan, tid int) *passRun {
	if plan.Pass == nil || !p.alone() || hasAtomic(l) {
		return nil
	}
	fork := *l
	fork.Memory = l.Memory.Fork()
	r := &passRun{Pass: plan.Pass, fork: &fork, tid: tid}
	if l.Program.Independent() {
		timed := *l
		timed.Memory, timed.TimingOnly = nil, true
		r.timed = &timed
		timedPrefixes.Add(1)
	}
	r.Go(r.fork, func(body func()) {
		r.start = time.Now()
		body()
		r.wall = time.Since(r.start)
	})
	return r
}

// endPass ends launch l's pass, when one started, emits its span and
// leaves the image a serial run would, once Execute ran without error
// (ran). Beside a kernel that ran on the live image, the pass is stopped,
// and its fork becomes the live image when the kernel read its tally: the
// pass then ran every workgroup, as the serial run did on the live one.
// Beside a kernel that ran with no image, the pass is the image: the run
// loop waits for all of it and adopts its fork, and its failure, wherever
// it happened, is the kernel's. Only a kernel that named a prefix
// (warp-sampling) executed fewer workgroups: its pass is dropped, and the
// live image advances over the prefix's workgroups, as the serial run's
// detailed prefix did.
func (p *pipeline) endPass(l *kernel.Launch, r *passRun, ran bool) error {
	if r == nil {
		return nil
	}
	prefix, named := r.Prefixed()
	var used bool
	var err error
	if r.timed != nil && ran && !named {
		err = engine.Try(func() (err error) {
			_, _, err = r.Take(0)
			return err
		})
		used = err == nil
	} else {
		used = r.Stop()
	}
	p.ao.Trace.Complete(p.app.Name+"/"+l.Name, "functional", simPID, r.tid, r.start, r.wall, map[string]any{"adopted": used})
	switch {
	case used:
		l.Memory.Adopt(r.fork.Memory)
		passesUsed.Add(1)
	case r.timed != nil && ran && named:
		start := time.Now()
		err = engine.Try(func() error {
			var g emu.Group
			return g.RunRange(l, 0, prefix, func([]*emu.Warp) bool { return true })
		})
		p.ao.Trace.Complete(p.app.Name+"/"+l.Name, "functional", simPID, p.ao.TID, start, time.Since(start), nil)
	}
	return err
}

// advance runs l functionally on the live image, gives the plan its
// instruction count and returns it.
func (p *pipeline) advance(l *kernel.Launch, plan *gpu.Plan) (insts uint64, err error) {
	err = engine.Try(func() (err error) {
		insts, err = emu.RunKernelFunctional(l)
		if err == nil && plan.Advanced != nil {
			plan.Advanced(insts)
		}
		return err
	})
	return insts, err
}

// advanceOnly runs a kernel whose plan needs no Execute: the functional
// advance of the live image is all of it, its count is the result's Insts,
// and its span and wall cover the plan and the advance. It queues behind the
// handed-off kernels, so it commits in launch order.
func (p *pipeline) advanceOnly(l *kernel.Launch, plan *gpu.Plan, start time.Time) error {
	insts, err := p.advance(l, plan)
	if err != nil {
		return p.failAt(l, err)
	}
	k := &kernelRun{l: l, plan: plan, tid: p.ao.TID, start: start, done: make(chan struct{})}
	k.r = gpu.KernelResult{Insts: insts, Wall: time.Since(start)}
	close(k.done)
	p.queue = append(p.queue, k)
	return p.mergeDone()
}

// handOff runs launch l's Execute on a helper over a fork of the image,
// which it drops, or, when l's program is independent, timing-only over no
// image, then advances the live image past l functionally. It waits for an
// idle GPU first, so at most window detailed runs, and their forks, are
// alive; finished ones wait in the queue to merge in order without holding
// back the next hand-off.
func (p *pipeline) handOff(l *kernel.Launch, plan *gpu.Plan) error {
	g := p.gpu()
	if err := p.mergeDone(); err != nil {
		return err
	}
	fork := *l
	fork.TimingOnly = true
	if fork.StepsTimingOnly() {
		fork.Memory = nil
		timingOnly.Add(1)
	} else {
		fork.Memory = l.Memory.Fork()
	}
	k := &kernelRun{l: l, plan: plan, tid: p.tids[g], done: make(chan struct{})}
	p.queue = append(p.queue, k)
	handedOff.Add(1)
	go func() {
		k.start = time.Now()
		p.run(g, &fork, k)
		close(k.done)
	}()
	start := time.Now()
	_, err := p.advance(l, plan)
	p.ao.Trace.Complete(p.app.Name+"/"+l.Name, "functional", simPID, p.ao.TID, start, time.Since(start), nil)
	if err != nil {
		// The detailed run of l most likely failed the same way: report
		// its error, as a serial run would, when it has one. A timing-only
		// run skips the values, LDS accesses and dead divisions a fault
		// can come from, so it may have none.
		<-k.done
		if k.err == nil {
			k.err = err
		}
		return p.mergeAll()
	}
	return nil
}

// mergeHead waits for the oldest queued kernel and merges it.
func (p *pipeline) mergeHead() error {
	k := p.queue[0]
	<-k.done
	p.queue = p.queue[1:]
	return p.merge(k)
}

// mergeDone merges the finished kernels at the head of the queue.
func (p *pipeline) mergeDone() error {
	for len(p.queue) > 0 {
		select {
		case <-p.queue[0].done:
		default:
			return nil
		}
		if err := p.mergeHead(); err != nil {
			return err
		}
	}
	return nil
}

// mergeAll merges every queued kernel in order, up to the first failure.
func (p *pipeline) mergeAll() error {
	for len(p.queue) > 0 {
		if err := p.mergeHead(); err != nil {
			return err
		}
	}
	return nil
}

// wait discards the queue once every helper in it has finished; the run
// defers it, so it never returns or unwinds past a running helper.
func (p *pipeline) wait() {
	for _, k := range p.queue {
		<-k.done
	}
	p.queue = nil
}

// merge commits one finished kernel's plan, audits its instruction count
// under Check, appends it to the result and emits its trace span.
func (p *pipeline) merge(k *kernelRun) error {
	if k.err != nil {
		return p.fail(k.l, k.err)
	}
	r := k.r
	if k.plan.Commit != nil {
		var err error
		if r, err = k.plan.Commit(r); err != nil {
			return p.fail(k.l, err)
		}
		r.Wall = k.r.Wall
	}
	if warps := k.l.TotalWarps(); p.ao.Check && r.Insts < uint64(warps) {
		return p.fail(k.l, fmt.Errorf("audit: %d instructions reported for %d warps (each warp executes at least s_endpgm)", r.Insts, warps))
	}
	p.ao.Trace.Complete(p.app.Name+"/"+k.l.Name, "kernel", simPID, k.tid, k.start, r.Wall, map[string]any{
		"runner": p.runner.Name(), "mode": r.Mode,
		"sim_cycles": r.SimTime, "insts": r.Insts,
	})
	p.res.KernelTime += r.SimTime
	p.res.Insts += r.Insts
	p.res.PerKernel = append(p.res.PerKernel, KernelRow{Name: k.l.Name, KernelResult: r})
	return nil
}

// failAt fails the run at launch l, unless a kernel before it failed first:
// a serial run would have stopped there.
func (p *pipeline) failAt(l *kernel.Launch, err error) error {
	if merr := p.mergeAll(); merr != nil {
		return merr
	}
	return p.fail(l, err)
}

func (p *pipeline) fail(l *kernel.Launch, err error) error {
	return fmt.Errorf("harness: %s/%s under %s: %w", p.app.Name, l.Name, p.runner.Name(), err)
}
