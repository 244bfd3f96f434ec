// Package engine executes independent experiment jobs on a bounded worker
// pool while keeping the harness's output deterministic: results are handed
// back to the caller in plan order, regardless of the order in which workers
// finish them. It is the execution layer behind every photon-bench sweep —
// each experiment enumerates its (config × bench × size × runner) cells as
// tasks, and the engine provides the parallelism, per-job panic recovery,
// error aggregation, and cancellation on first hard failure.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/obs"
)

// Task produces the value of one job. Tasks must be independent of each
// other; the engine may run them in any order and in any interleaving.
// Tasks should honor ctx cancellation when they are long-running, but the
// engine never depends on it: a cancelled task that runs to completion is
// merely wasted work.
type Task[T any] func(ctx context.Context) (T, error)

// Workers resolves a worker-count request: values <= 0 mean "one worker per
// CPU of the process's pool" (Procs), and the count is clamped to the task
// count so small plans do not spawn idle goroutines.
func Workers(requested, tasks int) int {
	n := requested
	if n <= 0 {
		n = Procs.Size()
	}
	if n > tasks {
		n = tasks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// CPUs is a count of free CPUs, one token each. A simulation holds a token
// while it runs, and spares a CPU for a helper or a pass while the count
// is above zero (DESIGN.md "Kernel-level parallelism"). Nothing waits for
// a token: Take may overdraw the count.
type CPUs struct {
	size int
	used atomic.Int64
}

// Procs is the process's pool: GOMAXPROCS tokens.
var Procs = NewCPUs(runtime.GOMAXPROCS(0))

// NewCPUs returns a pool of n free CPUs.
func NewCPUs(n int) *CPUs { return &CPUs{size: n} }

// Size is the number of tokens the pool holds when none is taken.
func (c *CPUs) Size() int { return c.size }

// Free is the count of free tokens now; it is below zero when overdrawn.
func (c *CPUs) Free() int { return c.size - int(c.used.Load()) }

// Take takes a token unconditionally: the count may go below zero.
func (c *CPUs) Take() { c.used.Add(1) }

// Give returns a token.
func (c *CPUs) Give() { c.used.Add(-1) }

// JobMeta describes how one job was executed: which worker ran it, how long
// it ran, and how long it sat in the queue first. Wall and QueueWait are host
// times and therefore nondeterministic; callers that require byte-identical
// output must normalize them before emission.
type JobMeta struct {
	Worker    int
	Wall      time.Duration
	QueueWait time.Duration
}

// Instrumentation carries the engine's optional telemetry sinks. The zero
// value disables them all: a nil registry yields no-op metric handles, a
// nil trace buffer swallows span emission, a nil logger is inert.
type Instrumentation struct {
	Metrics *obs.Registry
	Trace   *obs.TraceBuffer
	// Log receives one Debug record per job completion (worker, wall,
	// outcome) and one Warn record of kind "job" per failure. Per-job
	// records stay at Debug so the default Info level is silent through a
	// sweep.
	Log *obs.Logger
}

// enginePID is the trace-event process id under which engine job spans are
// grouped (workers appear as its threads).
const enginePID = 1

// result is one task's outcome. done is closed exactly once, when the task
// finished or was skipped due to cancellation.
type result[T any] struct {
	val     T
	err     error
	skipped bool
	meta    JobMeta
	done    chan struct{}
}

// Run executes tasks on a pool of Workers(parallel, len(tasks)) goroutines
// and calls emit(i, value) for each successful task in plan order (ascending
// index), from the calling goroutine — so emit needs no locking and the
// overall output is byte-identical for any worker count.
//
// Failure semantics mirror a serial loop that stops at the first error:
//   - a task error (or recovered panic) cancels the run; workers finish
//     in-flight tasks but start no new ones;
//   - results with indices after the first failed index are not emitted;
//   - all errors that did occur are aggregated via errors.Join, each
//     prefixed with its task index;
//   - an emit error cancels the run and is returned the same way.
func Run[T any](ctx context.Context, parallel int, tasks []Task[T], emit func(i int, v T) error) error {
	return RunObserved(ctx, parallel, tasks, Instrumentation{},
		func(i int, v T, _ JobMeta) error { return emit(i, v) })
}

// RunObserved is Run with telemetry: emit additionally receives each job's
// execution metadata, and ins (when wired) records per-job wall-time and
// queue-wait histograms, job counts by outcome, per-worker busy time and
// utilization gauges, and one Chrome trace span per job on the worker's
// thread track.
func RunObserved[T any](ctx context.Context, parallel int, tasks []Task[T], ins Instrumentation, emit func(i int, v T, meta JobMeta) error) error {
	if len(tasks) == 0 {
		return nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]result[T], len(tasks))
	for i := range results {
		results[i].done = make(chan struct{})
	}

	reg, tr := ins.Metrics, ins.Trace
	jobsOK := reg.Counter("engine_jobs_total", obs.L("status", "ok"))
	jobsErr := reg.Counter("engine_jobs_total", obs.L("status", "error"))
	jobsSkipped := reg.Counter("engine_jobs_total", obs.L("status", "skipped"))
	wallHist := reg.Histogram("engine_job_wall_seconds", obs.ExpBuckets(1e-4, 4, 12))
	waitHist := reg.Histogram("engine_job_queue_wait_seconds", obs.ExpBuckets(1e-4, 4, 12))
	tr.NameProcess(enginePID, "harness-engine")

	runStart := time.Now()
	indices := make(chan int)
	var wg sync.WaitGroup
	workers := Workers(parallel, len(tasks))
	busy := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr.NameThread(enginePID, w, fmt.Sprintf("worker-%d", w))
			for i := range indices {
				r := &results[i]
				if ctx.Err() != nil {
					r.skipped = true
					jobsSkipped.Inc()
					close(r.done)
					continue
				}
				start := time.Now()
				r.err = Try(func() (err error) {
					r.val, err = tasks[i](ctx)
					return err
				})
				wall := time.Since(start)
				r.meta = JobMeta{Worker: w, Wall: wall, QueueWait: start.Sub(runStart)}
				busy[w] += wall
				if r.err != nil {
					jobsErr.Inc()
					if ins.Log.Enabled(slog.LevelWarn) {
						ins.Log.Warn("engine job failed",
							obs.Kind("job"), slog.Int("value", i), slog.Int("worker", w),
							slog.Duration("wall", wall), slog.String("error", r.err.Error()))
					}
					cancel()
				} else {
					jobsOK.Inc()
					if ins.Log.Enabled(slog.LevelDebug) {
						ins.Log.Debug("engine job done",
							slog.Int("job", i), slog.Int("worker", w),
							slog.Duration("wall", wall),
							slog.Duration("queue_wait", r.meta.QueueWait))
					}
				}
				wallHist.Observe(wall.Seconds())
				waitHist.Observe(r.meta.QueueWait.Seconds())
				tr.Complete(fmt.Sprintf("job-%d", i), "engine-job", enginePID, w,
					start, wall, map[string]any{"job": i, "err": r.err != nil})
				close(r.done)
			}
		}(w)
	}
	go func() {
		defer close(indices)
		for i := range tasks {
			indices <- i
		}
	}()
	defer wg.Wait()

	var errs []error
	skipped := false
	for i := range tasks {
		<-results[i].done
		r := &results[i]
		switch {
		case r.skipped:
			// A job behind the first failure — or behind an external
			// cancellation — that never started.
			skipped = true
		case r.err != nil:
			errs = append(errs, fmt.Errorf("job %d: %w", i, r.err))
		case len(errs) == 0:
			if err := emit(i, r.val, r.meta); err != nil {
				cancel()
				errs = append(errs, fmt.Errorf("emit %d: %w", i, err))
			}
		}
	}
	// All results are done here, so every worker is idle (at most draining
	// the index channel); the busy slices are final.
	if reg != nil {
		elapsed := time.Since(runStart).Seconds()
		for w := 0; w < workers; w++ {
			lw := obs.L("worker", fmt.Sprintf("%d", w))
			reg.Gauge("engine_worker_busy_seconds", lw).Set(busy[w].Seconds())
			if elapsed > 0 {
				reg.Gauge("engine_worker_utilization", lw).Set(busy[w].Seconds() / elapsed)
			}
		}
	}
	// External cancellation (the caller's ctx, not the engine's own
	// cancel-on-first-failure) must surface as an error even when no task
	// had started yet: a run whose jobs were skipped is not a successful
	// run. Runs that completed every task before the cancel arrived still
	// return nil — all their work was emitted.
	if len(errs) == 0 && skipped && parent.Err() != nil {
		return parent.Err()
	}
	return errors.Join(errs...)
}

// Try calls f and turns a panic into an error carrying its stack, so one
// crashing job, or one crashing kernel of a run, surfaces as an error
// instead of killing the whole process.
func Try(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// Collect runs tasks like RunObserved and returns the successful values in
// plan order. It is the convenience form for callers that post-process the
// whole result set instead of streaming it.
func Collect[T any](ctx context.Context, parallel int, tasks []Task[T], ins Instrumentation) ([]T, error) {
	out := make([]T, 0, len(tasks))
	err := RunObserved(ctx, parallel, tasks, ins, func(_ int, v T, _ JobMeta) error {
		out = append(out, v)
		return nil
	})
	return out, err
}
