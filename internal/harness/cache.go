package harness

import (
	"context"
	"errors"
	"sync"

	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/workloads"
)

// BaselineKey identifies one full-detailed baseline run. Two experiments
// that sweep the same (config, bench, size, block options) cell measure the
// exact same deterministic simulation, so the result can be shared.
//
// Bench is the row label, and the key carries no builder, so a cache is only
// as sound as this invariant: within one cache, a (label, size) names one
// app. The workload catalog guarantees it for every label it prints; a
// sweep whose hand-built point reuses a catalog label for a different app
// (the quick transformer experiment's toy Xfmr-L2) must keep that point out
// of a shared cache.
type BaselineKey struct {
	Config string
	Bench  string
	Size   int
	Block  isa.BlockOptions
}

// BaselineCache memoizes full-detailed baseline runs across experiments.
// Full mode dominates a sweep's wall time (it is the very bottleneck Photon
// attacks), and fig13/fig15/baselines all re-measure the same cells; with
// the cache each cell is simulated at most once at a time and every other
// consumer blocks on — then shares — that one run. Safe for concurrent use.
//
// The cache is built to outlive a single sweep: photon-serve keeps one for
// the whole process, where runs carry per-job contexts. A run aborted by
// its submitter's context does not poison the entry — the cancellation is
// reported to the callers that were coalesced onto that run, and the next
// lookup of the key simulates it afresh. Terminal outcomes (a result, or a
// non-context error such as a build failure) are cached permanently.
type BaselineCache struct {
	mu      sync.Mutex
	entries map[BaselineKey]*baselineEntry

	simulated int // full runs actually started (cache misses)
	hits      int // lookups served without starting a run
}

// baselineEntry is one key's slot. States, guarded by the cache mutex:
// idle (inflight == nil, !terminal), running (inflight != nil), and
// terminal (res/err fixed forever).
type baselineEntry struct {
	inflight chan struct{} // non-nil while one caller runs the baseline
	terminal bool
	res      AppResult
	err      error
}

// NewBaselineCache returns an empty cache.
func NewBaselineCache() *BaselineCache {
	return &BaselineCache{entries: make(map[BaselineKey]*baselineEntry)}
}

// Full returns the full-detailed AppResult for key, simulating it with
// build() on first use. Concurrent callers of the same key block until the
// single simulation finishes; callers of different keys proceed in parallel.
// A nil cache simply runs the baseline uncached.
func (c *BaselineCache) Full(key BaselineKey, cfg gpu.Config, build func() (*workloads.App, error)) (AppResult, error) {
	return c.FullCtx(context.Background(), key, cfg, build)
}

// FullCtx is Full with cancellation: the context governs both this caller's
// wait and, when this caller is the one elected to simulate, the run itself
// (checked between kernel launches). If the elected run dies of its own
// context, waiting callers see that context error too — they coalesced onto
// a run that never finished — but the entry returns to idle so the next
// lookup re-simulates rather than replaying the cancellation forever.
func (c *BaselineCache) FullCtx(ctx context.Context, key BaselineKey, cfg gpu.Config, build func() (*workloads.App, error)) (AppResult, error) {
	if c == nil {
		return runFull(ctx, cfg, build)
	}
	counted := false // this lookup was tallied as a hit
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &baselineEntry{}
			c.entries[key] = e
		}
		if e.terminal {
			if !counted {
				c.hits++
			}
			res, err := e.res, e.err
			c.mu.Unlock()
			return res, err
		}
		if e.inflight == nil {
			// We are the elected runner for this key.
			done := make(chan struct{})
			e.inflight = done
			c.simulated++
			c.mu.Unlock()

			res, err := runFull(ctx, cfg, build)

			c.mu.Lock()
			e.inflight = nil
			if err == nil || !isCtxErr(err) {
				e.terminal, e.res, e.err = true, res, err
			}
			c.mu.Unlock()
			close(done)
			return res, err
		}
		// Someone else is running this key: wait for them, then loop to
		// re-read the entry (they may have finished terminally, or been
		// cancelled, in which case the next iteration elects a new runner —
		// possibly us).
		done := e.inflight
		if !counted {
			c.hits++
			counted = true
		}
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return AppResult{}, ctx.Err()
		}
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func runFull(ctx context.Context, cfg gpu.Config, build func() (*workloads.App, error)) (AppResult, error) {
	app, err := build()
	if err != nil {
		return AppResult{}, err
	}
	return RunAppCtx(ctx, cfg, app, gpu.FullRunner{})
}

// Simulated reports how many full baseline runs were actually started.
func (c *BaselineCache) Simulated() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simulated
}

// Hits reports how many lookups were served without a new simulation.
func (c *BaselineCache) Hits() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
