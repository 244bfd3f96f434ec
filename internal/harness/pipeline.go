package harness

import (
	"fmt"
	"time"

	"photon/internal/harness/engine"
	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/workloads"
)

// pipeline runs the kernels of one app and merges their results in kernel
// order (DESIGN.md "Kernel-level parallelism"). It asks the runner for each
// kernel's plan, on the run's goroutine in launch order, and makes two
// decisions, which the kernel's row records: step, and for a helper
// handOff, picks where Execute runs (KernelRow.Ran), and, once an inline
// Execute has run, pickImage picks the run whose image the kernel leaves
// (KernelRow.Image). Plans commit at merge, in launch order.
type pipeline struct {
	cfg    gpu.Config
	app    *workloads.App
	runner gpu.Runner
	ao     AppObs
	gpus   chan *gpu.GPU // idle GPUs; at most the pool's size are ever made
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
	row   KernelRow // how the kernel ran; merge adds its result
	tid   int       // trace thread: ao.TID on the run's goroutine, its GPU's when handed off
	r     gpu.KernelResult
	start time.Time
	err   error
	done  chan struct{} // closed once a queued kernel's r, start and err are set
}

func newPipeline(cfg gpu.Config, app *workloads.App, runner gpu.Runner, ao AppObs) *pipeline {
	p := &pipeline{cfg: cfg, app: app, runner: runner, ao: ao,
		gpus: make(chan *gpu.GPU, ao.cpus.Size()), tids: map[*gpu.GPU]int{}, res: AppResult{Runner: runner.Name()}}
	p.home = p.gpu()
	p.gpus <- p.home
	return p
}

// mayHandOff reports whether l, planned as plan, goes to a helper when its
// run may spare a CPU: its plan executes and may overlap, and its program
// has no atomic, whose returned values, and so the addresses that depend on
// them, follow the order the detailed run happens to execute it in.
func mayHandOff(plan *gpu.Plan, l *kernel.Launch) bool {
	return plan.Execute != nil && plan.Overlap && !l.Program.HasAtomic()
}

// step plans launch l, picks where its Execute runs (Ran) and runs it. A
// launch mayHandOff admits goes to a helper (handOff) when the run may
// spare a CPU; otherwise the plan's functional pass may start beside an
// inline Execute when the run may spare a CPU and the program has no
// atomic, and an independent program's Execute then runs timing-only,
// over no image. The run may spare a CPU when its pool has a token free at
// the launch: every run in flight holds one, so a lone run on two CPUs
// may, and two runs on two may not.
func (p *pipeline) step(l *kernel.Launch) error {
	start := time.Now()
	var plan *gpu.Plan
	err := engine.Try(func() (err error) {
		plan, err = p.runner.Plan(p.home, l)
		return err
	})
	if err != nil {
		return p.failAt(l, err)
	}
	k := &kernelRun{l: l, plan: plan, tid: p.ao.TID, start: start, done: make(chan struct{}),
		row: KernelRow{Name: l.Name, admitted: mayHandOff(plan, l)}}
	spare := p.ao.cpus.Free() > 0
	pass := plan.Pass != nil && spare && !l.Program.HasAtomic()
	switch {
	case plan.Execute == nil:
		k.row.Ran, k.row.Image = RanAdvance, ImageAdvance
		return p.advanceOnly(k)
	case k.row.admitted && spare:
		return p.handOff(k)
	case pass && l.Program.Independent():
		k.row.Ran = RanTimedBesidePass
	default:
		k.row.Ran = RanInline
	}
	return p.inline(k, pass)
}

// gpu returns an idle GPU, building one while fewer than the pool's size
// exist, and otherwise waits for a helper to finish.
func (p *pipeline) gpu() *gpu.GPU {
	select {
	case g := <-p.gpus:
		return g
	default:
	}
	if p.made < p.ao.cpus.Size() {
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

// inline runs k on the live image, or timing-only over no image when it
// runs timed-beside-pass, with its plan's functional pass beside it when
// pass is set, picks the run that leaves its image, then merges every
// earlier kernel and k, in that order. Its span and wall cover its plan,
// its run and the end of its pass, but not a wait for an idle GPU.
func (p *pipeline) inline(k *kernelRun, pass bool) error {
	planned := time.Since(k.start)
	g := p.gpu()
	k.start = time.Now().Add(-planned)
	run := *k.l
	var r *passRun
	if pass {
		r = p.startPass(k, g)
		if k.row.Ran == RanTimedBesidePass {
			run.Memory, run.Steps = nil, kernel.StepAddresses
		}
	}
	p.run(g, &run, k)
	if err := p.pickImage(k, r); k.err == nil {
		k.err = err
	}
	k.r.Wall = time.Since(k.start)
	if err := p.mergeAll(); err != nil {
		return err
	}
	return p.merge(k)
}

// startPass starts k's pass over a fork of the image beside k, which runs
// on g.
func (p *pipeline) startPass(k *kernelRun, g *gpu.GPU) *passRun {
	fork := *k.l
	fork.Memory = k.l.Memory.Fork()
	r := &passRun{Pass: k.plan.Pass, fork: fork.Memory, tid: p.tids[g]}
	r.Go(&fork, func(body func()) {
		r.start = time.Now()
		body()
		r.wall = time.Since(r.start)
	})
	return r
}

// passRun is a functional pass the run loop started beside an inline
// kernel. Its span goes on tid, the thread of the GPU that runs the kernel,
// which no helper can take before the pass has ended.
type passRun struct {
	*gpu.Pass
	fork  *mem.Flat // the image it runs over
	tid   int
	start time.Time
	wall  time.Duration // written by the pass's goroutine before it ends
}

// pickImage ends k's pass, r, when one started, emits its span and picks the
// run whose image k leaves, a serial run's, from k.row.Ran and Execute's
// outcome:
//   - no pass: Execute's, on the live image;
//   - inline: Execute read the pass's tally only if the pass ran every
//     workgroup, as the serial run did on the live one; the pass is
//     stopped, and its fork then becomes the live image;
//   - timed-beside-pass, Execute failed: the pass is dropped;
//   - timed-beside-pass, Execute named a prefix (warp-sampling): the pass
//     is dropped, and the live image replays the prefix's workgroups;
//   - timed-beside-pass otherwise: the run loop takes the whole pass, whose
//     failure, wherever it happened, is the kernel's, and adopts its fork.
func (p *pipeline) pickImage(k *kernelRun, r *passRun) (err error) {
	k.row.Image = ImageLive
	if r == nil {
		return nil
	}
	defer func() {
		p.ao.Trace.Complete(p.app.Name+"/"+k.l.Name, "functional", simPID, r.tid, r.start, r.wall, nil)
	}()
	prefix, named := r.Prefixed()
	adopt := false
	switch {
	case k.row.Ran == RanInline:
		adopt = r.Stop()
	case k.err != nil:
		r.Stop()
	case named:
		r.Stop()
		k.row.Image = ImageReplay
		err = p.replay(k.l, prefix)
	default:
		err = engine.Try(func() (err error) {
			_, _, err = r.Take(0)
			return err
		})
		adopt = err == nil
	}
	if adopt {
		k.l.Memory.Adopt(r.fork)
		k.row.Image = ImagePass
	}
	return err
}

// replay runs workgroups [0, n) of l functionally on the live image: the
// workgroups a timing-only prefix dispatched before its warp gate fired,
// whose values the serial run's detailed prefix left.
func (p *pipeline) replay(l *kernel.Launch, n int) error {
	start := time.Now()
	err := engine.Try(func() error {
		var g emu.Group
		return g.RunRange(l, 0, n, func([]*emu.Warp) bool { return true })
	})
	p.ao.Trace.Complete(p.app.Name+"/"+l.Name, "functional", simPID, p.ao.TID, start, time.Since(start), nil)
	return err
}

// advance runs k's launch functionally on the live image, gives the plan
// its instruction count and returns it.
func (p *pipeline) advance(k *kernelRun) (insts uint64, err error) {
	err = engine.Try(func() (err error) {
		insts, err = emu.RunKernelFunctional(k.l)
		if err == nil && k.plan.Advanced != nil {
			k.plan.Advanced(insts)
		}
		return err
	})
	return insts, err
}

// advanceOnly runs a kernel whose plan needs no Execute: the functional
// advance of the live image is all of it, its count is the result's Insts,
// and its span and wall cover the plan and the advance. It queues behind the
// handed-off kernels, so it commits in launch order.
func (p *pipeline) advanceOnly(k *kernelRun) error {
	insts, err := p.advance(k)
	if err != nil {
		return p.failAt(k.l, err)
	}
	k.r = gpu.KernelResult{Insts: insts, Wall: time.Since(k.start)}
	close(k.done)
	p.queue = append(p.queue, k)
	return p.mergeDone()
}

// handOff runs k's Execute on a helper while the run loop advances the
// live image past it functionally. The helper runs an independent program
// timing-only over no image (helper-timed), and a dependent one over a
// fork of the image at launch, replaying the tapes it records on the fork,
// which it drops (helper).
//
// It waits for an idle GPU first, so no more detailed runs, and their
// forks, are alive than the pool has CPUs; finished ones wait in the queue
// to merge in order without holding back the next hand-off.
func (p *pipeline) handOff(k *kernelRun) error {
	g := p.gpu()
	if err := p.mergeDone(); err != nil {
		return err
	}
	run := *k.l
	if k.l.Program.Independent() {
		k.row.Ran, run.Memory, run.Steps = RanHelperTimed, nil, kernel.StepAddresses
	} else {
		k.row.Ran, run.Memory, run.Steps = RanHelper, k.l.Memory.Fork(), kernel.StepTape
	}
	k.row.Image = ImageAdvance
	k.tid = p.tids[g]
	p.queue = append(p.queue, k)
	go func() {
		k.start = time.Now()
		p.run(g, &run, k)
		close(k.done)
	}()
	start := time.Now()
	_, err := p.advance(k)
	p.ao.Trace.Complete(p.app.Name+"/"+k.l.Name, "functional", simPID, p.ao.TID, start, time.Since(start), nil)
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
		"runner": p.runner.Name(), "mode": r.Mode, "sim_cycles": r.SimTime, "insts": r.Insts,
		"ran": string(k.row.Ran), "image": string(k.row.Image),
	})
	p.res.KernelTime += r.SimTime
	p.res.Insts += r.Insts
	k.row.KernelResult = r
	p.res.PerKernel = append(p.res.PerKernel, k.row)
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
