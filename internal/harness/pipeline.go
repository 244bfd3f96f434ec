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

// pipeline runs the kernels of one app and merges their results in kernel
// order (DESIGN.md "Kernel-level parallelism"). With a runner that keeps no
// state across kernels, a kernel may go to a helper goroutine, which runs it
// on its own GPU over a copy-on-write fork of the image at launch, while the
// run's goroutine advances the live image with the functional emulator.
// Every other kernel runs inline on the live image, as a serial run would.
type pipeline struct {
	cfg    gpu.Config
	app    *workloads.App
	runner gpu.Runner
	ao     AppObs
	// window bounds the detailed runs in flight; 1 is the serial path.
	window int
	gpus   chan *gpu.GPU // idle GPUs; at most window are ever made
	made   int
	tids   map[*gpu.GPU]int // the trace thread of each GPU's handed-off kernels
	queue  []*kernelRun     // handed off and not merged yet, in kernel order
	res    AppResult
}

// kernelRun is one kernel's detailed run, audited on the GPU that ran it.
type kernelRun struct {
	l     *kernel.Launch // the app's launch, not its fork
	tid   int            // trace thread: ao.TID inline, its GPU's when handed off
	r     gpu.KernelResult
	start time.Time
	err   error
	done  chan struct{} // closed once r, start and err are set
}

func newPipeline(cfg gpu.Config, app *workloads.App, runner gpu.Runner, ao AppObs) *pipeline {
	window := 1
	if stateless(runner) {
		window = runtime.GOMAXPROCS(0)
	}
	return &pipeline{cfg: cfg, app: app, runner: runner, ao: ao, window: window,
		gpus: make(chan *gpu.GPU, window), tids: map[*gpu.GPU]int{}, res: AppResult{Runner: runner.Name()}}
}

// stateless reports whether the runner carries nothing from one kernel to
// the next, so that any GPU may run any kernel: today only the full-detailed
// runner without an observer.
func stateless(r gpu.Runner) bool {
	f, ok := r.(gpu.FullRunner)
	o := f.Observer
	return ok && o.WarpStart == nil && o.WarpRetired == nil && o.InstIssued == nil && o.BlockRetired == nil
}

// hasAtomic reports whether the program contains an atomic, whose returned
// values, and so the addresses that depend on them, follow the order the
// detailed run happens to execute it in.
func hasAtomic(p *isa.Program) bool {
	return slices.ContainsFunc(p.Insts, func(in isa.Inst) bool { return in.Op.IsAtomic() })
}

// handsOff reports whether launch i goes to a helper. The last launch runs
// inline, so the final image is the detailed one, as in a serial run.
func (p *pipeline) handsOff(i int) bool {
	return p.window > 1 && i < len(p.app.Launches)-1 && running.Load() == 1 &&
		!hasAtomic(p.app.Launches[i].Program)
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

// run runs l on g, stamps the call's host time as the kernel's wall (runners
// leave it zero) and, under Check, audits what it left in g's hierarchy. A
// panic becomes the kernel's error, inline as on a helper, and g goes back
// to the pool: RunDetailed resets what a kernel leaves in it.
func (p *pipeline) run(g *gpu.GPU, l *kernel.Launch) (r gpu.KernelResult, start time.Time, err error) {
	start = time.Now()
	err = engine.Try(func() (err error) {
		r, err = p.runner.RunKernel(g, l)
		return err
	})
	r.Wall = time.Since(start)
	if err == nil && p.ao.Check {
		err = audit(g, l, r)
	}
	p.gpus <- g
	return r, start, err
}

// inline runs launch l on the live image, then merges every earlier kernel
// and l, in that order.
func (p *pipeline) inline(l *kernel.Launch) error {
	k := kernelRun{l: l, tid: p.ao.TID}
	k.r, k.start, k.err = p.run(p.gpu(), l)
	if err := p.mergeAll(); err != nil {
		return err
	}
	return p.merge(&k)
}

// handOff runs launch l's detailed run on a helper over a fork of the image,
// then advances the live image past l functionally. It waits for an idle
// GPU first, so at most window detailed runs, and their forks, are alive;
// finished ones wait in the queue to merge in order without holding back
// the next hand-off.
func (p *pipeline) handOff(l *kernel.Launch) error {
	g := p.gpu()
	if err := p.mergeDone(); err != nil {
		return err
	}
	fork := *l
	fork.Memory = l.Memory.Fork()
	k := &kernelRun{l: l, tid: p.tids[g], done: make(chan struct{})}
	p.queue = append(p.queue, k)
	handedOff.Add(1)
	go func() {
		k.r, k.start, k.err = p.run(g, &fork)
		close(k.done)
	}()
	start := time.Now()
	err := engine.Try(func() error {
		_, err := emu.RunKernelFunctional(l)
		return err
	})
	p.ao.Trace.Complete(p.app.Name+"/"+l.Name, "functional", simPID, p.ao.TID, start, time.Since(start), nil)
	if err != nil {
		// The detailed run of l most likely failed the same way: report
		// its error, as a serial run would, when it has one.
		if merr := p.mergeAll(); merr != nil {
			return merr
		}
		return p.fail(l, err)
	}
	return nil
}

// mergeHead waits for the oldest handed-off kernel and merges it.
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

// mergeAll merges every handed-off kernel in order, up to the first failure.
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

// merge appends one finished kernel to the result and emits its trace span.
func (p *pipeline) merge(k *kernelRun) error {
	if k.err != nil {
		return p.fail(k.l, k.err)
	}
	r := k.r
	p.ao.Trace.Complete(p.app.Name+"/"+k.l.Name, "kernel", simPID, k.tid, k.start, r.Wall, map[string]any{
		"runner": p.runner.Name(), "mode": r.Mode,
		"sim_cycles": r.SimTime, "insts": r.Insts,
	})
	p.res.KernelTime += r.SimTime
	p.res.Insts += r.Insts
	p.res.PerKernel = append(p.res.PerKernel, KernelRow{Name: k.l.Name, KernelResult: r})
	return nil
}

func (p *pipeline) fail(l *kernel.Launch, err error) error {
	return fmt.Errorf("harness: %s/%s under %s: %w", p.app.Name, l.Name, p.runner.Name(), err)
}
