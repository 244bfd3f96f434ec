package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4, 100); got != 4 {
		t.Fatalf("Workers(4, 100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want clamp to task count", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Fatalf("Workers(0, 100) = %d, want >= 1", got)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Fatalf("Workers(-1, 0) = %d, want 1", got)
	}
}

// TestRunEmitsInPlanOrder makes late-indexed tasks finish first and checks
// the emit order is still ascending.
func TestRunEmitsInPlanOrder(t *testing.T) {
	const n = 32
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func(context.Context) (int, error) {
			// Early plan indices sleep longest, inverting completion order.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i * 10, nil
		}
	}
	var order []int
	err := Run(context.Background(), 8, tasks, func(i int, v int) error {
		if v != i*10 {
			t.Errorf("emit(%d) got value %d", i, v)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order %v not plan order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("emitted %d of %d", len(order), n)
	}
}

// TestRunActuallyParallel proves tasks overlap: 4 tasks block on a shared
// barrier that only opens once all 4 are running, which deadlocks unless the
// pool runs them concurrently.
func TestRunActuallyParallel(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	tasks := make([]Task[struct{}], n)
	for i := range tasks {
		tasks[i] = func(context.Context) (struct{}, error) {
			barrier.Done()
			barrier.Wait()
			return struct{}{}, nil
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- Run(context.Background(), n, tasks, func(int, struct{}) error { return nil })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not run tasks concurrently")
	}
}

// TestRunStopsAtFirstError mirrors serial semantics: results before the
// failing index are emitted, results after it are not, and queued tasks are
// skipped once the run is cancelled.
func TestRunStopsAtFirstError(t *testing.T) {
	const n = 64
	boom := errors.New("boom")
	var started atomic.Int32
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func(context.Context) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}
	}
	var emitted []int
	err := Run(context.Background(), 2, tasks, func(i int, v int) error {
		emitted = append(emitted, i)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("error should name the failing job index: %v", err)
	}
	for _, i := range emitted {
		if i >= 3 {
			t.Fatalf("emitted index %d after failure at 3", i)
		}
	}
	if int(started.Load()) == n {
		t.Fatalf("cancellation did not skip any of the %d queued tasks", n)
	}
}

// TestRunRecoversPanics converts a panicking job into an aggregated error.
func TestRunRecoversPanics(t *testing.T) {
	tasks := []Task[int]{
		func(context.Context) (int, error) { return 1, nil },
		func(context.Context) (int, error) { panic("kaboom") },
	}
	err := Run(context.Background(), 2, tasks, func(int, int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "engine_test.go") {
		t.Fatalf("panic error should carry a stack trace: %.120s", err.Error())
	}
}

// TestRunEmitErrorCancels stops the sweep when the caller's emit fails.
func TestRunEmitErrorCancels(t *testing.T) {
	const n = 32
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (int, error) { return i, nil }
	}
	sinkErr := errors.New("sink full")
	calls := 0
	err := Run(context.Background(), 4, tasks, func(i int, v int) error {
		calls++
		if i == 1 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times, want 2 (stop after failing emit)", calls)
	}
}

func TestCollect(t *testing.T) {
	tasks := make([]Task[string], 10)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (string, error) {
			time.Sleep(time.Duration(10-i) * time.Millisecond)
			return fmt.Sprintf("v%d", i), nil
		}
	}
	got, err := Collect(context.Background(), 4, tasks, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Collect[%d] = %q", i, v)
		}
	}
}

func TestRunEmptyPlan(t *testing.T) {
	if err := Run(context.Background(), 4, nil, func(int, int) error {
		t.Fatal("emit on empty plan")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunObservedExternalCancel cancels the caller's context mid-run and
// checks the run reports the cancellation instead of returning nil with
// silently skipped jobs (photon-serve relies on this to mark cancelled and
// deadline-exceeded jobs as failed rather than succeeded-empty).
func TestRunObservedExternalCancel(t *testing.T) {
	const n = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = func(tctx context.Context) (int, error) {
			if i == 0 {
				cancel()             // first job triggers external cancellation
				<-release            // and holds its worker until we let go
				return 0, tctx.Err() // a well-behaved long task reports ctx
			}
			return i, nil
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- RunObserved(ctx, 1, tasks, Instrumentation{},
			func(int, int, JobMeta) error { return nil })
	}()
	close(release)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("external cancel returned %v, want context.Canceled", err)
	}
}

// TestRunObservedCancelBeforeStart covers the race where the context is
// already dead when the run begins: every job is skipped, and the run must
// still return the cancellation error.
func TestRunObservedCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	tasks := []Task[int]{func(context.Context) (int, error) { ran.Add(1); return 1, nil }}
	err := RunObserved(ctx, 1, tasks, Instrumentation{}, func(int, int, JobMeta) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
	// The single worker may or may not have popped the index before seeing
	// ctx.Err(); either way nothing may be emitted and the error must stand.
	_ = ran.Load()
}

// TestRunsCancelIndependently is the serve-layer guarantee at engine
// granularity: two concurrent runs with sibling contexts — cancelling one
// run must not cancel, skip or fail jobs of the other.
func TestRunsCancelIndependently(t *testing.T) {
	const n = 24
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()

	started := make(chan struct{})
	tasksA := make([]Task[int], n)
	for i := range tasksA {
		i := i
		tasksA[i] = func(tctx context.Context) (int, error) {
			if i == 0 {
				close(started)
				<-tctx.Done() // park until our own run is cancelled
				return 0, tctx.Err()
			}
			return i, nil
		}
	}
	doneA := make(chan error, 1)
	go func() {
		doneA <- RunObserved(ctxA, 2, tasksA, Instrumentation{},
			func(int, int, JobMeta) error { return nil })
	}()

	<-started
	cancelA()
	if err := <-doneA; err == nil {
		t.Fatal("cancelled run A returned nil")
	}

	// Run B starts after A is torn down but shares nothing with it; it must
	// complete every job.
	tasksB := make([]Task[int], n)
	for i := range tasksB {
		i := i
		tasksB[i] = func(context.Context) (int, error) { return i, nil }
	}
	emitted := 0
	if err := RunObserved(ctxB, 2, tasksB, Instrumentation{},
		func(int, int, JobMeta) error { emitted++; return nil }); err != nil {
		t.Fatalf("sibling run B failed after A's cancellation: %v", err)
	}
	if emitted != n {
		t.Fatalf("run B emitted %d of %d jobs", emitted, n)
	}
}

// TestQueueWaitUnderSaturation admits more jobs than workers and checks the
// reported queue wait grows for jobs that had to wait for a worker slot:
// with one worker and sleeping tasks, job i cannot start before i earlier
// tasks ran, so its QueueWait must be at least their summed wall time.
func TestQueueWaitUnderSaturation(t *testing.T) {
	const (
		n     = 4
		sleep = 30 * time.Millisecond
	)
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (int, error) {
			time.Sleep(sleep)
			return i, nil
		}
	}
	waits := make([]time.Duration, n)
	err := RunObserved(context.Background(), 1, tasks, Instrumentation{},
		func(i int, _ int, meta JobMeta) error {
			waits[i] = meta.QueueWait
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if waits[i] < waits[i-1] {
			t.Fatalf("queue waits not monotone under 1 worker: %v", waits)
		}
	}
	// Generous 50% slack: timers on loaded CI runners undershoot sleeps.
	if min := time.Duration(n-1) * sleep / 2; waits[n-1] < min {
		t.Fatalf("last job queue wait %v, want >= %v (saturated queue)", waits[n-1], min)
	}
}
