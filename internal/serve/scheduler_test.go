package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/harness"
	"photon/internal/obs"
)

// blockingExec is a stub executor that counts runs and holds each one until
// release is closed (or the job's ctx ends).
func blockingExec(runs *atomic.Int64, release <-chan struct{}) Executor {
	return func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		runs.Add(1)
		select {
		case <-release:
			return Output{Text: "out:" + req.Bench + req.Experiment, JSONL: "{}\n"}, nil
		case <-ctx.Done():
			return Output{}, ctx.Err()
		}
	}
}

func waitState(t *testing.T, s *Scheduler, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %s never reached %q (now %q)", id, want, st.State)
	return JobStatus{}
}

func counter(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().SumCounters(name)
}

// Concurrent submissions of the same request must coalesce onto exactly one
// execution: the acceptance criterion behind serve_jobs_submitted >
// serve_jobs_executed.
func TestSubmitCoalescesConcurrentDuplicates(t *testing.T) {
	reg := obs.NewRegistry()
	var runs atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(Config{Workers: 2, Metrics: reg, Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(JobRequest{Bench: "mm"})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(release)

	for _, id := range ids {
		st := waitState(t, s, id, StateDone)
		if st.RequestHash == "" {
			t.Error("status missing request hash")
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("executor ran %d times, want 1", got)
	}
	if sub, exec := counter(reg, "serve_jobs_submitted"), counter(reg, "serve_jobs_executed"); sub != n || exec != 1 {
		t.Errorf("submitted=%d executed=%d, want %d and 1", sub, exec, n)
	}
	if co := counter(reg, "serve_jobs_coalesced"); co != n-1 {
		t.Errorf("coalesced=%d, want %d", co, n-1)
	}
	// Every rider sees the same artifact.
	for _, id := range ids {
		res, finished, err := s.Result(id)
		if err != nil || !finished {
			t.Fatalf("Result(%s): finished=%v err=%v", id, finished, err)
		}
		if res.Output != "out:MM" {
			t.Errorf("Result(%s).Output = %q", id, res.Output)
		}
	}
}

func TestCacheHitAfterCompletion(t *testing.T) {
	reg := obs.NewRegistry()
	var runs atomic.Int64
	release := make(chan struct{})
	close(release) // run instantly
	s := NewScheduler(Config{Metrics: reg, Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())

	first, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)

	// Same content, different spelling and hints: must hit the cache.
	again, err := s.Submit(JobRequest{Bench: "MM", Size: 1024, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateDone {
		t.Fatalf("resubmission: cache_hit=%v state=%s, want instant done", again.CacheHit, again.State)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("executor ran %d times, want 1", got)
	}
	if hits := counter(reg, "serve_cache_hits"); hits != 1 {
		t.Errorf("serve_cache_hits = %d, want 1", hits)
	}
	r1, _, _ := s.Result(first.ID)
	r2, _, _ := s.Result(again.ID)
	if r1.Output != r2.Output || r1.JSONL != r2.JSONL {
		t.Error("cached result differs from the original")
	}
}

func TestQueueFullRejects(t *testing.T) {
	reg := obs.NewRegistry()
	var runs atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(Config{Workers: 1, QueueDepth: 1, Metrics: reg, Executor: blockingExec(&runs, release)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	defer close(release) // LIFO: unblock jobs first, then drain

	// Occupy the worker, then the single queue slot, with distinct requests.
	if _, err := s.Submit(JobRequest{Bench: "mm"}); err != nil {
		t.Fatal(err)
	}
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(JobRequest{Bench: "sc"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(JobRequest{Bench: "fir"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if rej := counter(reg, "serve_jobs_rejected"); rej != 1 {
		t.Errorf("serve_jobs_rejected = %d, want 1", rej)
	}
	// A duplicate of a queued job still coalesces: backpressure applies to
	// new work, not to riders.
	if st, err := s.Submit(JobRequest{Bench: "sc"}); err != nil || !st.Coalesced {
		t.Errorf("duplicate during saturation: st=%+v err=%v, want coalesced", st, err)
	}
}

// Cancelling one job must not disturb an unrelated running job.
func TestCancelIndependence(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(Config{Workers: 2, Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())

	a, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(JobRequest{Bench: "sc"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning)
	waitState(t, s, b.ID, StateRunning)

	st, err := s.Cancel(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", st.State)
	}
	waitState(t, s, a.ID, StateCancelled)

	// B must still be running, and must still complete normally.
	if st, _ := s.Status(b.ID); st.State != StateRunning {
		t.Fatalf("sibling job state = %s after cancelling a, want running", st.State)
	}
	close(release)
	waitState(t, s, b.ID, StateDone)
}

// Cancelling one of several coalesced riders keeps the shared run alive for
// the rest; only the last cancellation stops it.
func TestCancelCoalescedRiders(t *testing.T) {
	reg := obs.NewRegistry()
	var runs atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(Config{Metrics: reg, Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())

	a, _ := s.Submit(JobRequest{Bench: "mm"})
	waitState(t, s, a.ID, StateRunning)
	b, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil || !b.Coalesced {
		t.Fatalf("second submit: %+v, %v", b, err)
	}

	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	// The run must survive for b.
	time.Sleep(10 * time.Millisecond)
	if st, _ := s.Status(b.ID); st.State != StateRunning {
		t.Fatalf("remaining rider state = %s, want running", st.State)
	}
	close(release)
	waitState(t, s, b.ID, StateDone)
	// a stays cancelled even though the execution completed.
	if st, _ := s.Status(a.ID); st.State != StateCancelled {
		t.Errorf("cancelled rider state = %s, want cancelled", st.State)
	}
}

func TestCancelLastRiderStopsRunAndUncaches(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(Config{Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())
	defer close(release) // LIFO: unblock the second run, then drain

	a, _ := s.Submit(JobRequest{Bench: "mm"})
	waitState(t, s, a.ID, StateRunning)
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateCancelled)

	// A fresh submission must start a new execution, not join the corpse.
	b, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit || b.Coalesced {
		t.Fatalf("post-cancel submit attached to dead execution: %+v", b)
	}
	waitState(t, s, b.ID, StateRunning)
	if got := runs.Load(); got != 2 {
		t.Fatalf("executor ran %d times, want 2", got)
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	var calls atomic.Int64
	exec := func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		if calls.Add(1) == 1 {
			return Output{}, errors.New("transient flop")
		}
		return Output{Text: "ok"}, nil
	}
	s := NewScheduler(Config{Metrics: reg, Executor: exec})
	defer s.Drain(context.Background())

	a, _ := s.Submit(JobRequest{Bench: "mm"})
	st := waitState(t, s, a.ID, StateFailed)
	if !strings.Contains(st.Error, "transient flop") {
		t.Errorf("failed status error = %q", st.Error)
	}
	if res, finished, _ := s.Result(a.ID); !finished || res.State != StateFailed {
		t.Errorf("failed result: finished=%v state=%s", finished, res.State)
	}

	b, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit {
		t.Fatal("failure was served from cache")
	}
	waitState(t, s, b.ID, StateDone)
	if f := counter(reg, "serve_jobs_failed"); f != 1 {
		t.Errorf("serve_jobs_failed = %d, want 1", f)
	}
}

func TestJobDeadlineCancelsExecution(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)
	s := NewScheduler(Config{Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())

	a, err := s.Submit(JobRequest{Bench: "mm", TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, a.ID, StateFailed)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("timeout error = %q, want a deadline error", st.Error)
	}
}

func TestDrainWaitsThenRejects(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(Config{Executor: blockingExec(&runs, release)})

	a, _ := s.Submit(JobRequest{Bench: "mm"})
	waitState(t, s, a.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Submit(JobRequest{Bench: "sc"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v before in-flight job finished", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitState(t, s, a.ID, StateDone)
}

func TestDrainDeadlineHardCancels(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)
	s := NewScheduler(Config{Executor: blockingExec(&runs, release)})

	a, _ := s.Submit(JobRequest{Bench: "mm"})
	waitState(t, s, a.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	if st, _ := s.Status(a.ID); !st.Finished() {
		t.Errorf("job state after hard drain = %s, want terminal", st.State)
	}
}

func TestSubscribeReplaysLifecycle(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	close(release)
	s := NewScheduler(Config{Executor: blockingExec(&runs, release)})
	defer s.Drain(context.Background())

	a, _ := s.Submit(JobRequest{Bench: "mm"})
	waitState(t, s, a.ID, StateDone)

	replay, live, cancel, err := s.Subscribe(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if live != nil {
		t.Error("live channel non-nil after job finished")
	}
	var states []string
	for _, ev := range replay {
		if ev.Type == "state" || ev.Type == "result" {
			states = append(states, ev.State)
		}
	}
	want := []string{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("replayed lifecycle = %v, want %v", states, want)
	}
}

// The race-detector stress test from the issue checklist: hammer a small
// set of distinct requests from many goroutines, with cancellations mixed
// in, and check the books afterwards. The store is a real disk CAS, so the
// window between an execution finishing and its result being findable is as
// wide as an fsync.
func TestConcurrentDuplicateSubmissionStress(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenCAS(t.TempDir(), 0, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		h.Progress(Event{Type: "span", Name: req.Bench})
		select {
		case <-time.After(time.Millisecond):
			return Output{Text: req.Bench}, nil
		case <-ctx.Done():
			return Output{}, ctx.Err()
		}
	}
	s := NewScheduler(Config{Workers: 4, QueueDepth: 64, Metrics: reg, Executor: exec, Store: store})
	defer s.Drain(context.Background())

	benches := []string{"mm", "sc", "fir", "aes"}
	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	var ids sync.Map
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				st, err := s.Submit(JobRequest{Bench: benches[(g+i)%len(benches)]})
				if errors.Is(err, ErrQueueFull) {
					continue // backpressure is a legal answer under stress
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids.Store(st.ID, struct{}{})
				switch i % 5 {
				case 3:
					s.Cancel(st.ID)
				case 4:
					if _, _, cancel, err := s.Subscribe(st.ID); err == nil {
						cancel()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every surviving job must reach a terminal state.
	ids.Range(func(k, _ any) bool {
		id := k.(string)
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, err := s.Status(id)
			if err != nil {
				t.Errorf("Status(%s): %v", id, err)
				return true
			}
			if st.Finished() {
				return true
			}
			if time.Now().After(deadline) {
				t.Errorf("job %s stuck in %s", id, st.State)
				return true
			}
			time.Sleep(time.Millisecond)
		}
	})
	sub, exec2 := counter(reg, "serve_jobs_submitted"), counter(reg, "serve_jobs_executed")
	if sub <= exec2 {
		t.Errorf("submitted=%d executed=%d: expected coalescing/caching to dedupe", sub, exec2)
	}
	// The burst may finish submitting before any execution completes (all
	// coalesced, no hits), so force a deterministic hit: once a bench's
	// execution is done, resubmitting it must answer from the cache.
	for _, b := range benches {
		st, err := s.Submit(JobRequest{Bench: b})
		if err != nil {
			t.Fatalf("post-burst submit %s: %v", b, err)
		}
		waitState(t, s, st.ID, StateDone)
		again, err := s.Submit(JobRequest{Bench: b})
		if err != nil || !again.CacheHit {
			t.Errorf("resubmit %s after done: cache_hit=%v err=%v", b, again.CacheHit, err)
		}
	}
	if hits := counter(reg, "serve_cache_hits"); hits < uint64(len(benches)) {
		t.Errorf("serve_cache_hits = %d, want >= %d", hits, len(benches))
	}

	// No re-execution window: riders on requests nobody cancels resubmit the
	// instant they observe done. The result must already be in the store —
	// a hit every time, one execution per request.
	fresh := []string{"relu", "spmv", "hist", "reduce"}
	executed := counter(reg, "serve_jobs_executed")
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := JobRequest{Bench: fresh[g%len(fresh)]}
			st, err := s.Submit(req)
			if err != nil {
				t.Errorf("Submit %s: %v", req.Bench, err)
				return
			}
			if _, err := s.Wait(context.Background(), st.ID); err != nil {
				t.Errorf("Wait %s: %v", st.ID, err)
				return
			}
			if again, err := s.Submit(req); err != nil || !again.CacheHit {
				t.Errorf("resubmit %s on seeing done: cache_hit=%v err=%v", req.Bench, again.CacheHit, err)
			}
		}(g)
	}
	wg.Wait()
	if got := counter(reg, "serve_jobs_executed") - executed; got != uint64(len(fresh)) {
		t.Errorf("%d executions for %d uncancelled requests, want one each", got, len(fresh))
	}
}

// A job id that outlives a worker restart must not come to name another
// request's job: ids lead with the request hash, so the restarted worker's
// first job — same sequence number — is a different id unless it is the
// same request.
func TestJobIDDoesNotAliasAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	start := func() *Scheduler {
		store, err := OpenCAS(dir, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(Config{Store: store, Executor: func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
			return Output{Text: "out:" + req.Bench}, nil
		}})
		t.Cleanup(func() { s.Drain(context.Background()) })
		return s
	}
	before := start()
	old, err := before.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, before, old.ID, StateDone)

	after := start() // the restart: sequence numbers begin again
	other, err := after.Submit(JobRequest{Bench: "sc"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, after, other.ID, StateDone)
	if _, err := after.Status(old.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status(%s) on the restarted worker: err = %v, want ErrUnknownJob (its first job is %s)", old.ID, err, other.ID)
	}
	if _, _, err := after.Result(old.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Result(%s) on the restarted worker: err = %v, want ErrUnknownJob", old.ID, err)
	}
	// The one collision left is harmless by construction: the same request,
	// resubmitted, gets the old id back and serves the same bytes.
	same, err := after.Submit(JobRequest{Bench: "mm"})
	if err != nil || !same.CacheHit {
		t.Fatalf("resubmission after restart: %+v, %v; want a store hit", same, err)
	}
	if res, _, _ := after.Result(same.ID); res.Output != "out:MM" {
		t.Fatalf("result after restart = %q, want %q", res.Output, "out:MM")
	}
}

// TestMaxCachedResultsIsInert pins the one surviving done-cache identifier as
// dead weight: the store is the only place results are found, so the field
// must not bound, or otherwise change, what a resubmission is answered from.
func TestMaxCachedResultsIsInert(t *testing.T) {
	for _, max := range []int{0, 1} {
		reg := obs.NewRegistry()
		var runs atomic.Int64
		release := make(chan struct{})
		close(release)
		s := NewScheduler(Config{MaxCachedResults: max, Metrics: reg, Executor: blockingExec(&runs, release)})
		benches := []string{"mm", "sc", "fir"}
		for _, b := range benches {
			st, err := s.Submit(JobRequest{Bench: b})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, st.ID, StateDone)
		}
		for _, b := range benches {
			if st, err := s.Submit(JobRequest{Bench: b}); err != nil || !st.CacheHit {
				t.Errorf("MaxCachedResults=%d: resubmit %s: cache_hit=%v err=%v", max, b, st.CacheHit, err)
			}
		}
		if hits, cas := counter(reg, "serve_cache_hits"), counter(reg, "serve_cas_hits"); hits != 3 || cas != 3 {
			t.Errorf("MaxCachedResults=%d: serve_cache_hits=%d serve_cas_hits=%d, want 3 and 3", max, hits, cas)
		}
		s.Drain(context.Background())
	}
}

// TestHarnessExecutorSmallCell runs the real executor end to end on the
// smallest benchmark cell and checks the text artifact has the photon-bench
// shape. This is the one test in the package that simulates for real.
func TestHarnessExecutorSmallCell(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	reg := obs.NewRegistry()
	s := NewScheduler(Config{Metrics: reg})
	defer s.Drain(context.Background())

	st, err := s.Submit(JobRequest{Bench: "sc", FixedWall: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	res, _, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bench", "SC", "full", "photon"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("output missing %q:\n%s", want, res.Output)
		}
	}
	if !strings.Contains(res.JSONL, `"experiment":"sim"`) {
		t.Errorf("jsonl missing sim record: %q", res.JSONL)
	}
	// The span hook must have streamed progress events.
	replay, _, cancel, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	spans := 0
	for _, ev := range replay {
		if ev.Type == "span" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("no span events relayed from the trace hook")
	}

	// An observation figure is served from the same table: the artifact is
	// the registry entry's bytes plus photon-bench's blank separator line.
	st, err = s.Submit(JobRequest{Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	if res, _, err = s.Result(st.ID); err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := harness.Fig8(&cli, harness.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if want := cli.String() + "\n"; res.Output != want {
		t.Errorf("served fig8 differs from the CLI bytes:\n--- served ---\n%s--- cli ---\n%s", res.Output, want)
	}
}

// TestServedCatalogCellsRoundTrip: a single-cell job for the modern-ML
// entries runs to done through the real executor, and resubmitting the
// status.Request the service returned — the canonical form — is a cache hit.
// Before the canonical bench was the catalog name it was the row label
// ("TrainStep-b2"), which no lookup resolved: the job failed in the worker.
func TestServedCatalogCellsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	s := NewScheduler(Config{Metrics: obs.NewRegistry()})
	defer s.Drain(context.Background())

	for _, req := range []JobRequest{
		{Bench: "trainstep"},
		{Bench: "xfmr", Size: 1, FixedWall: true},
	} {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for !st.Finished() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			if st, err = s.Status(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != StateDone {
			t.Fatalf("%+v ended %q: %s", req, st.State, st.Error)
		}
		again, err := s.Submit(st.Request)
		if err != nil {
			t.Fatalf("resubmitting status.Request %+v: %v", st.Request, err)
		}
		if !again.CacheHit || again.RequestHash != st.RequestHash {
			t.Errorf("verbatim resubmit of %+v: cache_hit=%v hash %s, want a hit on %s",
				st.Request, again.CacheHit, again.RequestHash, st.RequestHash)
		}
	}
}
