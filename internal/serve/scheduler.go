package serve

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"photon/internal/harness"
	"photon/internal/obs"
)

// Output is what one execution produces: the text artifact (photon-bench
// stdout), the JSON-lines records (the -json artifact), and the per-kernel
// sampling-accuracy ledger (JSON lines, empty when nothing was sampled).
type Output struct {
	Text     string
	JSONL    string
	Accuracy string
}

// Hooks is what the scheduler lends an executor for one run: the progress
// sink feeding the job's SSE stream, the engine worker count, and the
// process-wide shared state (baseline cache, metrics registry, daemon
// logger).
type Hooks struct {
	Progress  func(Event)
	Parallel  int
	Baselines *harness.BaselineCache
	Metrics   *obs.Registry
	// Log is the daemon's base logger, flight ring included; executors
	// derive job-scoped loggers from it (and may fan records out to the
	// job's SSE hub as well).
	Log *obs.Logger
	// Job is the short request hash, for scoping log records.
	Job string
}

// Executor runs one canonical request to completion. It must honor ctx —
// that is the only mechanism behind job cancellation, per-request deadlines
// and drain-timeout hard stops.
type Executor func(ctx context.Context, req JobRequest, h Hooks) (Output, error)

// Config sizes the scheduler. Zero values pick the documented defaults.
type Config struct {
	// Workers is the number of concurrent executions (default 1: each
	// execution already parallelizes internally via the engine's pool).
	Workers int
	// QueueDepth bounds how many admitted executions may wait for a worker
	// (default 16). Beyond it, Submit returns ErrQueueFull (429).
	QueueDepth int
	// JobParallel is the default engine worker count per execution
	// (<= 0: one per CPU), overridable per request.
	JobParallel int
	// DefaultTimeout bounds each job end-to-end, queue wait included,
	// when the request does not set its own (0 = unbounded).
	DefaultTimeout time.Duration
	// RetryAfter is the backoff hint returned with 429 (default 2s).
	RetryAfter time.Duration
	// MaxCachedResults is ignored: finished results live only in Store,
	// whose byte cap is the one capacity knob. It survives only because
	// benchmark/serve.go, frozen outside benchmark PRs, still sets it; the
	// benchmark PR that stops setting it removes this field.
	MaxCachedResults int
	// Metrics receives the serve_* counters and, through the executor, all
	// engine and simulator telemetry. Nil disables (nil-safe handles).
	Metrics *obs.Registry
	// Log receives scheduler lifecycle records (admissions and state
	// changes at Debug, completions, failures and drain at Info/Warn). Nil
	// disables.
	Log *obs.Logger
	// Flight is the always-on bounded ring of recent control-plane events,
	// dumped via GET /debug/flight, SIGQUIT and on panic. NewScheduler
	// composes it into Log as one more handler, so it keeps every record
	// that carries an obs.Kind — the scheduler's admit/reject/coalesce/
	// cache-hit, state transitions and drain phases, and through Hooks.Log
	// the executions' tier decisions — at any level. Nil disables.
	Flight *obs.FlightRecorder
	// Baselines is shared by every job; nil allocates a fresh cache.
	Baselines *harness.BaselineCache
	// Executor runs jobs; nil uses HarnessExecutor(). Tests inject stubs.
	Executor Executor
	// Store is the content-addressed result store: every successful
	// execution is Put into it, and Submit answers from it whatever is not
	// queued or running. Nil gets NewMemoryCAS at the default cap; pass an
	// OpenCAS store for results that survive restarts.
	Store *CAS
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.Baselines == nil {
		c.Baselines = harness.NewBaselineCache()
	}
	if c.Executor == nil {
		c.Executor = HarnessExecutor()
	}
	if c.Store == nil {
		c.Store = NewMemoryCAS(0, c.Metrics, c.Log)
	}
	return c
}

// execution is one underlying run: the unit the queue and the worker pool
// deal in. Every submission of the same canonical request while it is
// queued/running attaches to it (coalescing); once it finishes it leaves the
// scheduler's table and only its own jobs still point at it. All fields
// below the hub are guarded by the scheduler mutex.
type execution struct {
	hash   string
	req    JobRequest
	hub    *eventHub
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	state    string
	refs     int // attached, not-yet-cancelled jobs
	parallel int // engine workers (first submitter's hint wins)
	out      Output
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	res      obs.ResourceDelta // before/after attribution of the run
}

// job is one submission: a client-visible view onto an execution.
type job struct {
	id        string
	exec      *execution
	cacheHit  bool
	coalesced bool
	cancelled bool
	created   time.Time
}

// Scheduler owns the job queue, the worker pool, the in-flight execution
// table and the job table. Safe for concurrent use by the HTTP handlers.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	execs    map[string]*execution // queued and running, by hash
	jobs     map[string]*job
	jobOrder []string // insertion order, for bounded eviction of finished jobs
	queue    chan *execution
	nextID   uint64
	draining bool

	wg sync.WaitGroup

	mSubmitted, mExecuted, mCacheHits, mCoalesced *obs.Counter
	mRejected, mCancelled, mFailed, mDone         *obs.Counter
	gQueueDepth                                   *obs.Gauge
	hWall, hQueueWait                             *obs.Histogram
}

// maxJobs bounds the job table; oldest finished jobs are evicted beyond it.
const maxJobs = 4096

// NewScheduler builds a scheduler and starts its workers.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	cfg.Log = obs.NewLogger(obs.Fanout(cfg.Log.Handler(), cfg.Flight.Handler()))
	reg := cfg.Metrics
	s := &Scheduler{
		cfg:   cfg,
		execs: make(map[string]*execution),
		jobs:  make(map[string]*job),
		queue: make(chan *execution, cfg.QueueDepth),

		mSubmitted:  reg.Counter("serve_jobs_submitted"),
		mExecuted:   reg.Counter("serve_jobs_executed"),
		mCacheHits:  reg.Counter("serve_cache_hits"),
		mCoalesced:  reg.Counter("serve_jobs_coalesced"),
		mRejected:   reg.Counter("serve_jobs_rejected"),
		mCancelled:  reg.Counter("serve_jobs_cancelled"),
		mFailed:     reg.Counter("serve_jobs_failed"),
		mDone:       reg.Counter("serve_jobs_done"),
		gQueueDepth: reg.Gauge("serve_queue_depth"),
		hWall:       reg.Histogram("serve_job_wall_seconds", obs.ExpBuckets(1e-3, 4, 12)),
		hQueueWait:  reg.Histogram("serve_queue_wait_seconds", obs.ExpBuckets(1e-3, 4, 12)),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// RetryAfter is the backoff hint the HTTP layer attaches to 429s.
func (s *Scheduler) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Submit validates and admits one request. The three outcomes: an in-flight
// execution adopts the submission (coalesced), a result in the store answers
// instantly (cache hit), otherwise a new execution is enqueued — or rejected
// with ErrQueueFull/ErrDraining when admission control says no.
func (s *Scheduler) Submit(req JobRequest) (JobStatus, error) {
	canonical, err := Canonicalize(req)
	if err != nil {
		return JobStatus{}, err
	}
	hash := Hash(canonical)
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.mSubmitted.Inc()

	if e, ok := s.execs[hash]; ok { // queued or running: ride along
		j := s.newJobLocked(e)
		j.coalesced = true
		e.refs++
		s.mCoalesced.Inc()
		if s.cfg.Log.Enabled(slog.LevelDebug) {
			s.cfg.Log.Debug("coalesced onto in-flight execution", kindSched, slog.String("job", j.id))
		}
		return s.statusLocked(j), nil
	}

	// Not in flight: the store has it if it ever completed here and has not
	// been evicted — in this process or, with a disk store, a previous one.
	// The hit is wrapped in a terminal execution so every read path (status,
	// result, accuracy, events replay) serves it like a run of its own.
	if out, ok := s.cfg.Store.Get(hash); ok {
		j := s.newJobLocked(resurrect(hash, canonical, out))
		j.cacheHit = true
		s.mCacheHits.Inc()
		if s.cfg.Log.Enabled(slog.LevelDebug) {
			s.cfg.Log.Debug("cache hit", kindSched, slog.String("job", j.id))
		}
		return s.statusLocked(j), nil
	}

	if s.draining {
		s.mRejected.Inc()
		s.cfg.Log.Info("rejected: draining", kindSched)
		return JobStatus{}, ErrDraining
	}

	ctx, cancel := context.WithCancel(context.Background())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	e := &execution{
		hash:     hash,
		req:      canonical,
		hub:      newEventHub(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
		refs:     1,
		parallel: req.Parallel,
		created:  time.Now(),
	}
	if e.parallel == 0 {
		e.parallel = s.cfg.JobParallel
	}
	select {
	case s.queue <- e:
	default:
		cancel()
		s.mRejected.Inc()
		s.cfg.Log.Warn("rejected: queue full", kindSched)
		return JobStatus{}, ErrQueueFull
	}
	s.execs[hash] = e
	s.gQueueDepth.Set(float64(len(s.queue)))
	j := s.newJobLocked(e)
	e.hub.publish(Event{Type: "state", State: StateQueued})
	if s.cfg.Log.Enabled(slog.LevelDebug) {
		s.cfg.Log.Debug("admitted", kindSched, slog.String("job", j.id), slog.Int("value", len(s.queue)))
	}
	return s.statusLocked(j), nil
}

// resurrect builds a terminal execution around a store hit. The hub carries
// the terminal event only — the lifecycle that produced the artifacts
// belonged to another job, possibly in a previous process.
func resurrect(hash string, req JobRequest, out Output) *execution {
	now := time.Now()
	e := &execution{
		hash:     hash,
		req:      req,
		hub:      newEventHub(),
		cancel:   func() {},
		done:     make(chan struct{}),
		state:    StateDone,
		out:      out,
		created:  now,
		started:  now,
		finished: now,
	}
	close(e.done)
	e.hub.publish(Event{Type: "result", State: StateDone})
	e.hub.close()
	return e
}

// The scheduler's two record kinds; a record carrying one lands in the
// flight ring as well as the log (see obs.Kind).
var (
	kindSched = obs.Kind("sched")
	kindDrain = obs.Kind("drain")
)

// short abbreviates a request hash for log records.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// newJobLocked mints a job id, attaches it to e and evicts old finished
// jobs beyond the table cap. The id leads with the request hash so that an
// id outliving a restart (the sequence starts over) can only ever name a
// submission of the same request, whose artifacts are identical; it holds
// no '.', which the cluster router relies on to split its own ids.
func (s *Scheduler) newJobLocked(e *execution) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("%s-%d", short(e.hash), s.nextID),
		exec:    e,
		created: time.Now(),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobs) > maxJobs && len(s.jobOrder) > 0 {
		oldest := s.jobOrder[0]
		if old, ok := s.jobs[oldest]; ok {
			if !old.cancelled && old.exec.state != StateDone &&
				old.exec.state != StateFailed && old.exec.state != StateCancelled {
				break // never evict a live job
			}
			delete(s.jobs, oldest)
		}
		s.jobOrder = s.jobOrder[1:]
	}
	return j
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for e := range s.queue {
		s.runExecution(e)
	}
}

func (s *Scheduler) runExecution(e *execution) {
	s.mu.Lock()
	s.gQueueDepth.Set(float64(len(s.queue)))
	if e.refs == 0 || e.ctx.Err() != nil {
		// Every submitter detached — or the deadline lapsed — while the
		// execution sat in the queue. Don't burn a worker on it.
		err := e.ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		s.finishLocked(e, StateCancelled, Output{}, fmt.Errorf("cancelled while queued: %w", err))
		s.mu.Unlock()
		return
	}
	e.state = StateRunning
	e.started = time.Now()
	s.mu.Unlock()

	s.mExecuted.Inc()
	s.hQueueWait.Observe(e.started.Sub(e.created).Seconds())
	e.hub.publish(Event{Type: "state", State: StateRunning})
	if s.cfg.Log.Enabled(slog.LevelDebug) {
		s.cfg.Log.Debug("running", kindSched, slog.String("job", short(e.hash)))
	}

	before := obs.TakeResourceSample()
	out, err := s.execute(e)
	e.res = obs.TakeResourceSample().Delta(before)

	// Store the result before the execution leaves the in-flight table, so a
	// client that sees done and resubmits finds it in one or the other. The
	// write (an fsync on disk) runs outside the scheduler lock, on the worker
	// goroutine's clock. Failures and cancellations never reach the store.
	if err == nil {
		s.cfg.Store.Put(e.hash, out)
	}

	s.mu.Lock()
	state := StateDone
	switch {
	case err == nil:
		state = StateDone
	case e.refs == 0:
		// The failure is our own cancellation arriving through ctx.
		state = StateCancelled
	default:
		state = StateFailed
	}
	s.finishLocked(e, state, out, err)
	s.mu.Unlock()
}

// execute invokes the executor with panic containment: a panicking job dumps
// the flight ring to stderr (the crash context that would otherwise vanish
// with the goroutine), then surfaces as an ordinary failure so the daemon
// keeps serving. The harness engine already recovers panics inside its own
// workers; this guards the executor plumbing around it.
func (s *Scheduler) execute(e *execution) (out Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in executor: %v", r)
			s.cfg.Log.Error(fmt.Sprintf("executor panicked: %v", r),
				obs.Kind("panic"), slog.String("job", short(e.hash)))
			fmt.Fprintf(os.Stderr, "photon-serve: executor panic on %s: %v\n%s",
				short(e.hash), r, debug.Stack())
			if s.cfg.Flight != nil {
				_ = s.cfg.Flight.WriteText(os.Stderr)
			}
		}
	}()
	return s.cfg.Executor(e.ctx, e.req, Hooks{
		Progress:  e.hub.publish,
		Parallel:  e.parallel,
		Baselines: s.cfg.Baselines,
		Metrics:   s.cfg.Metrics,
		Log:       s.cfg.Log,
		Job:       short(e.hash),
	})
}

// finishLocked moves e to a terminal state, takes it out of the in-flight
// table, updates the metrics and emits the terminal event. Its jobs keep
// serving its result; the next submission of the same request is a store
// hit when it succeeded and runs afresh when it did not.
func (s *Scheduler) finishLocked(e *execution, state string, out Output, err error) {
	e.state = state
	e.out, e.err = out, err
	e.finished = time.Now()
	if !e.started.IsZero() {
		s.hWall.Observe(e.finished.Sub(e.started).Seconds())
	}
	if s.execs[e.hash] == e { // not already detached by its last rider's cancel
		delete(s.execs, e.hash)
	}
	ev := Event{Type: "result", State: state}
	switch state {
	case StateDone:
		s.mDone.Inc()
	case StateCancelled:
		s.mCancelled.Inc()
	default:
		s.mFailed.Inc()
	}
	if err != nil {
		ev.Error = err.Error()
	}
	// The terminal record's message is the state itself; value is the
	// execution's age in seconds, queue wait included.
	job := slog.String("job", short(e.hash))
	age := slog.Float64("value", e.finished.Sub(e.created).Seconds())
	if state != StateDone {
		if s.cfg.Log.Enabled(slog.LevelWarn) {
			s.cfg.Log.Warn(state, kindSched, job, age, slog.String("error", ev.Error))
		}
	} else if s.cfg.Log.Enabled(slog.LevelInfo) {
		s.cfg.Log.Info(state, kindSched, job, age,
			slog.Duration("wall", e.finished.Sub(e.started)),
			slog.Duration("cpu", e.res.CPUTime),
			slog.Uint64("alloc_bytes", e.res.AllocBytes))
	}
	e.cancel() // release the timeout timer
	close(e.done)
	e.hub.publish(ev)
	e.hub.close()
}

// Cancel detaches job id from its execution. The underlying run is
// cancelled only when its last attached job goes — cancelling one of
// several coalesced submissions never kills the others' run.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	e := j.exec
	if j.cancelled || e.state == StateDone || e.state == StateFailed || e.state == StateCancelled {
		st := s.statusLocked(j)
		s.mu.Unlock()
		return st, nil // terminal already: cancelling is a no-op
	}
	j.cancelled = true
	e.refs--
	var cancelRun context.CancelFunc
	if e.refs == 0 {
		// Last rider gone: stop the run and detach the hash so a future
		// submission re-executes instead of coalescing onto a corpse.
		delete(s.execs, e.hash)
		cancelRun = e.cancel
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	if cancelRun != nil {
		cancelRun()
	}
	return st, nil
}

// Status returns the lifecycle view of one job.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

// Result returns the terminal payload of one job. The bool reports whether
// the job has finished; before that the result carries only the status.
func (s *Scheduler) Result(id string) (JobResult, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobResult{}, false, ErrUnknownJob
	}
	st := s.statusLocked(j)
	if !st.Finished() {
		return JobResult{JobStatus: st}, false, nil
	}
	return JobResult{
		JobStatus: st,
		Output:    j.exec.out.Text,
		JSONL:     j.exec.out.JSONL,
		Accuracy:  j.exec.out.Accuracy,
	}, true, nil
}

// List returns every known job, oldest first.
func (s *Scheduler) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, id := range s.jobOrder {
		if j, ok := s.jobs[id]; ok {
			out = append(out, s.statusLocked(j))
		}
	}
	return out
}

// Subscribe attaches to a job's event stream: a replay of everything so
// far plus a live channel (nil when the job already finished).
func (s *Scheduler) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	return s.SubscribeFrom(id, 0)
}

// SubscribeFrom is Subscribe resuming after a known event sequence number:
// the replay carries only events with Seq > after. A reconnecting SSE
// client passes its Last-Event-ID so a dropped proxy connection resumes
// the stream instead of duplicating it.
func (s *Scheduler) SubscribeFrom(id string, after uint64) ([]Event, <-chan Event, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrUnknownJob
	}
	replay, live, cancel := j.exec.hub.subscribeFrom(after)
	return replay, live, cancel, nil
}

// Wait blocks until the job finishes or ctx expires; used by tests and by
// handlers that support ?wait=1 style polling internally.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.exec.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	return s.Status(id)
}

func (s *Scheduler) statusLocked(j *job) JobStatus {
	e := j.exec
	st := JobStatus{
		ID:          j.id,
		State:       e.state,
		Request:     e.req,
		RequestHash: e.hash,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		CreatedAt:   j.created,
	}
	if !e.started.IsZero() {
		t := e.started
		st.StartedAt = &t
		st.QueueWaitMS = float64(e.started.Sub(e.created).Microseconds()) / 1000
	}
	if !e.finished.IsZero() {
		t := e.finished
		st.FinishedAt = &t
		if !e.started.IsZero() {
			st.WallMS = float64(e.finished.Sub(e.started).Microseconds()) / 1000
		}
		st.CPUTimeMS = float64(e.res.CPUTime.Microseconds()) / 1000
		st.AllocBytes = e.res.AllocBytes
		st.PeakHeapBytes = e.res.PeakHeapBytes
	}
	if e.err != nil {
		st.Error = e.err.Error()
	}
	if j.cancelled {
		st.State = StateCancelled
		if st.Error == "" {
			st.Error = "cancelled by client"
		}
	}
	return st
}

// Load reports the scheduler's instantaneous load: queue depth, running
// executions and the worker count. /readyz serves it so the cluster
// router's health table and per-node gauges show real pressure.
func (s *Scheduler) Load() Load {
	s.mu.Lock()
	defer s.mu.Unlock()
	inFlight := 0
	for _, e := range s.execs {
		if e.state == StateRunning {
			inFlight++
		}
	}
	return Load{QueueDepth: len(s.queue), InFlight: inFlight, Workers: s.cfg.Workers}
}

// CachedResult looks a finished result up by content address, for
// GET /v1/cache/{hash}. It never schedules anything.
func (s *Scheduler) CachedResult(hash string) (Output, bool) {
	return s.cfg.Store.Get(hash)
}

// Draining reports whether the scheduler has stopped admitting jobs.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits for queued and in-flight executions to
// finish. When ctx expires first, every remaining execution is hard-
// cancelled through its context and Drain waits for the workers to unwind
// before returning ctx's error. Safe to call once; the scheduler cannot be
// restarted after.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // Submit never sends once draining is set (same mutex)
		s.cfg.Log.Info("admission stopped; waiting for in-flight work", kindDrain)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.Log.Info("drained cleanly", kindDrain)
		return nil
	case <-ctx.Done():
		s.cfg.Log.Warn("deadline hit; hard-cancelling executions", kindDrain)
		s.mu.Lock()
		for _, e := range s.execs {
			e.cancel()
		}
		s.mu.Unlock()
		<-done
		s.cfg.Log.Info("drained after hard cancel", kindDrain)
		return ctx.Err()
	}
}

// Flight exposes the scheduler's flight recorder (nil when disabled), for
// the HTTP layer's /debug/flight and the daemon's signal-triggered dumps.
func (s *Scheduler) Flight() *obs.FlightRecorder { return s.cfg.Flight }
