// Package serve is photon's simulation-as-a-service subsystem: a stdlib-only
// (net/http + encoding/json) HTTP service that accepts simulation and
// experiment jobs, runs them on a bounded worker pool backed by the harness
// job-graph engine, and adds the production concerns the one-shot CLIs never
// needed — a content-addressed result cache with in-flight coalescing,
// admission control with backpressure, per-request deadlines, job lifecycle
// and progress-streaming endpoints, and graceful drain.
//
// The package splits into the API types and canonical request hashing (this
// file), the scheduler (queue, workers, cache, lifecycle), the executor
// (bridging requests onto internal/harness), the event hub (SSE fan-out) and
// the HTTP server. cmd/photon-serve is the daemon; cmd/photon-ctl the client.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"photon/internal/harness"
	"photon/internal/sim/gpu"
)

// JobRequest is the body of POST /v1/jobs. Exactly one job shape applies:
// set Experiment to run a registered experiment sweep (the photon-bench
// -exp values), or leave it empty and set Bench to run a single
// (benchmark, size, arch) cell under one or more modes (the photon-sim
// shape). Parallel and TimeoutMS are execution hints — how to run, not what
// to run — and are deliberately excluded from the request's content hash,
// so two submissions differing only in hints share one cached result.
type JobRequest struct {
	// Experiment names a registered experiment (fig13, extensions, …).
	Experiment string `json:"experiment,omitempty"`

	// Bench/Size/Arch/Modes describe a single-cell job. Bench is any name or
	// alias of the workload catalog (harness.Workloads) and Size one of that
	// entry's admissible sizes, 0 picking its default; Arch defaults to
	// r9nano; Modes defaults to ["photon"] (the full baseline row is always
	// included, so "full" is kept only as the sole mode).
	Bench string   `json:"bench,omitempty"`
	Size  int      `json:"size,omitempty"`
	Arch  string   `json:"arch,omitempty"`
	Modes []string `json:"modes,omitempty"`

	// Quick, FixedWall and PRNodes mirror the photon-bench flags.
	Quick     bool `json:"quick,omitempty"`
	FixedWall bool `json:"fixed_wall,omitempty"`
	PRNodes   int  `json:"pr_nodes,omitempty"`

	// Parallel is the engine worker count for this job's graph (0 = the
	// server's default). An execution hint: not hashed.
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMS bounds the job end-to-end, queue wait included (0 = the
	// server's default). An execution hint: not hashed.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the lifecycle view of one submission (GET /v1/jobs/{id}).
type JobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Request     JobRequest `json:"request"`
	RequestHash string     `json:"request_hash"`

	// CacheHit marks a submission answered instantly from the result
	// store; Coalesced marks one attached to an execution that was already
	// queued or running when it arrived.
	CacheHit  bool `json:"cache_hit"`
	Coalesced bool `json:"coalesced,omitempty"`

	CreatedAt   time.Time  `json:"created_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	QueueWaitMS float64    `json:"queue_wait_ms,omitempty"`
	WallMS      float64    `json:"wall_ms,omitempty"`

	// Resource attribution, filled when the execution finishes. The samples
	// are process-wide, so the numbers are exact with one scheduler worker
	// (the default) and an upper bound when executions overlap.
	CPUTimeMS     float64 `json:"cpu_time_ms,omitempty"`
	AllocBytes    uint64  `json:"alloc_bytes,omitempty"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes,omitempty"`

	Error string `json:"error,omitempty"`
}

// Finished reports whether the job reached a terminal state.
func (s JobStatus) Finished() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCancelled
}

// JobResult is the terminal payload (GET /v1/jobs/{id}/result): the status
// plus the two artifacts every harness run produces. For an experiment job,
// Output is byte-identical to `photon-bench -exp <name>` stdout and JSONL to
// its -json artifact (given the same quick/fixed-wall/parallel settings —
// and with fixed_wall set they are byte-identical regardless of parallel).
type JobResult struct {
	JobStatus
	Output string `json:"output"`
	JSONL  string `json:"jsonl,omitempty"`
	// Accuracy is the per-kernel sampling-accuracy ledger (JSON lines, one
	// AccuracyRecord per sampled kernel), also served raw at
	// GET /v1/jobs/{id}/accuracy. Empty for runs with no sampled kernels.
	Accuracy string `json:"accuracy,omitempty"`
}

// Event is one SSE message on GET /v1/jobs/{id}/events: state transitions,
// engine/kernel spans relayed from the job's obs trace hook, structured log
// records scoped to the job, and the final result marker.
type Event struct {
	// Seq is the hub-assigned sequence number (1, 2, …), carried on the wire
	// as the SSE `id:` field rather than in the JSON payload; a reconnecting
	// client sends it back as Last-Event-ID to resume instead of replaying.
	// A job retains its last 4096 events for replay (the terminal "result"
	// always among them): a stream that starts, or resumes, at an id higher
	// than the one asked for has had older events trimmed.
	Seq uint64 `json:"-"`

	Type  string  `json:"type"`            // "state" | "span" | "log" | "result"
	State string  `json:"state,omitempty"` // for "state" and "result"
	Name  string  `json:"name,omitempty"`  // span name (job-3, MM/mm_tile, …)
	Cat   string  `json:"cat,omitempty"`   // span category (engine-job, kernel)
	DurMS float64 `json:"dur_ms,omitempty"`
	Error string  `json:"error,omitempty"`

	// Log-record fields ("log" events only): severity, message, and the
	// record's attrs rendered as strings.
	Level  string            `json:"level,omitempty"`
	Msg    string            `json:"msg,omitempty"`
	Fields map[string]string `json:"fields,omitempty"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// Submission errors. The HTTP layer maps these onto status codes; other
// errors from Submit are invalid requests (400).
var (
	// ErrQueueFull is admission-control backpressure: the pending queue is
	// at capacity. Mapped to 429 with a Retry-After header.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining means the server is shutting down and no longer admits
	// jobs. Mapped to 503.
	ErrDraining = errors.New("serve: server is draining")
	// ErrUnknownJob is returned for lookups of ids the server never issued
	// (or has evicted). Mapped to 404.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Canonicalize validates req and returns its canonical form: defaults
// applied, names normalized, execution hints stripped. Two requests asking
// for the same simulation canonicalize identically, which is what makes the
// result cache content-addressed.
func Canonicalize(req JobRequest) (JobRequest, error) {
	c := req
	c.Parallel, c.TimeoutMS = 0, 0 // hints, not content

	if c.Experiment != "" {
		if c.Bench != "" || len(c.Modes) > 0 || c.Size != 0 || c.Arch != "" {
			return JobRequest{}, errors.New("experiment jobs take no bench/size/arch/modes")
		}
		if _, ok := harness.FindExperiment(c.Experiment); !ok {
			return JobRequest{}, fmt.Errorf("unknown experiment %q", c.Experiment)
		}
		if c.PRNodes == 0 {
			c.PRNodes = harness.DefaultOptions().PRNodes
		}
		// pr_nodes is a PageRank size: the catalog's range for it bounds
		// experiment jobs exactly as it bounds single-cell ones.
		if _, err := harness.PageRank.Admit(c.PRNodes); err != nil {
			return JobRequest{}, fmt.Errorf("pr_nodes: %w", err)
		}
		return c, nil
	}

	if c.Bench == "" {
		return JobRequest{}, errors.New("request needs either experiment or bench")
	}
	if c.PRNodes != 0 {
		return JobRequest{}, errors.New("pr_nodes applies to experiment jobs only (use size for the pr bench)")
	}
	if c.Arch == "" {
		c.Arch = "r9nano"
	}
	if _, ok := gpu.Configs(c.Arch); !ok {
		return JobRequest{}, fmt.Errorf("unknown arch %q (want r9nano or mi100)", c.Arch)
	}
	if len(c.Modes) == 0 {
		c.Modes = []string{"photon"}
	}
	// Validate the cell and modes eagerly so a bad request fails at submit
	// time (400), not asynchronously inside a worker. The canonical bench is
	// the catalog's submit name, not the row label ("PR-64K", "VGG-16"): it
	// resolves back to the same entry, so a client may resubmit a
	// status.Request verbatim.
	pt, err := harness.FindBench(c.Bench, c.Size)
	if err != nil {
		return JobRequest{}, err
	}
	c.Bench, c.Size = pt.Name, pt.Size
	for _, m := range c.Modes {
		if _, err := harness.FactoryForMode(m, harness.DefaultOptions().Params); err != nil {
			return JobRequest{}, err
		}
	}
	modes := slices.Clone(c.Modes)
	slices.Sort(modes)
	modes = slices.Compact(modes)
	// Every sweep emits the baseline row, so naming it beside a sampled mode
	// asks for nothing more; alone it still means "baseline only".
	if len(modes) > 1 {
		modes = slices.DeleteFunc(modes, func(m string) bool { return m == harness.BaselineMode })
	}
	c.Modes = modes
	return c, nil
}

// Hash returns the content address of a canonical request: the hex SHA-256
// of its canonical JSON encoding. Call Canonicalize first; hashing a raw
// request would let default-vs-explicit spellings of the same job miss each
// other in the cache.
func Hash(c JobRequest) string {
	b, err := json.Marshal(c) // struct encoding is deterministic: field order is fixed
	if err != nil {
		panic("serve: request not marshalable: " + err.Error()) // unreachable: all fields are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
