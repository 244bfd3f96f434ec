package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// JSON export: the paper's artifact stores run results as JSON files (one
// per benchmark) that its plotting scripts consume; this file provides the
// equivalent structured output as JSON-lines records.

// Record is the serialized form of one (benchmark, size, runner) result.
type Record struct {
	Experiment string  `json:"experiment,omitempty"`
	Bench      string  `json:"bench"`
	Size       int     `json:"size,omitempty"`
	Runner     string  `json:"runner"`
	Kernels    int     `json:"kernels"`
	SimCycles  int64   `json:"sim_cycles"`
	FullCycles int64   `json:"full_cycles"`
	Insts      uint64  `json:"insts"`
	WallMS     float64 `json:"wall_ms"`
	ErrPct     float64 `json:"err_pct"`
	Speedup    float64 `json:"speedup"`

	// Worker and JobWallMS describe how the harness engine executed this
	// row's job; under FixedWall they are pinned (0 and 1.0) so records stay
	// byte-identical across worker counts.
	Worker    int     `json:"worker"`
	JobWallMS float64 `json:"job_wall_ms"`

	PerKernel []KernelRecordJSON `json:"per_kernel,omitempty"`
}

// KernelRecordJSON is one kernel's slice of a Record.
type KernelRecordJSON struct {
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	SimCycles int64   `json:"sim_cycles"`
	Insts     uint64  `json:"insts"`
	WallMS    float64 `json:"wall_ms"`
}

// ToRecord converts a comparison into its serializable form, one
// per-kernel row per launch of the sampled run.
func ToRecord(experiment string, c Comparison) Record {
	r := Record{
		Experiment: experiment,
		Bench:      c.Bench,
		Size:       c.Size,
		Runner:     c.Runner,
		Kernels:    len(c.Sampled.PerKernel),
		SimCycles:  int64(c.Sampled.KernelTime),
		FullCycles: int64(c.Full.KernelTime),
		Insts:      c.Sampled.Insts,
		WallMS:     ms(c.Sampled.Wall),
		ErrPct:     c.ErrPct(),
		Speedup:    c.Speedup(),
	}
	for _, k := range c.Sampled.PerKernel {
		r.PerKernel = append(r.PerKernel, KernelRecordJSON{
			Name: k.Name, Mode: k.Mode, SimCycles: int64(k.SimTime),
			Insts: k.Insts, WallMS: ms(k.Wall),
		})
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// jsonLines writes records of type T as JSON lines: the one writer under
// both of a sweep's artifacts, JSONSink and AccuracySink. A nil writer, or
// one made over a nil io.Writer, discards, so callers can emit
// unconditionally. Emit is safe for concurrent use: one writer is shared by
// every job of an experiment's job graph, and the mutex keeps each record
// whole on its own line no matter which goroutine emits.
type jsonLines[T any] struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newJSONLines[T any](w io.Writer) *jsonLines[T] {
	if w == nil {
		return &jsonLines[T]{}
	}
	return &jsonLines[T]{enc: json.NewEncoder(w)}
}

// Emit writes one record (no-op for a discarding writer).
func (s *jsonLines[T]) Emit(r T) error {
	if s == nil || s.enc == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(r)
}

// JSONSink streams a sweep's records (photon-bench -json) as JSON lines.
type JSONSink = jsonLines[Record]

// NewJSONSink wraps a writer; pass nil to get a discarding sink.
func NewJSONSink(w io.Writer) *JSONSink { return newJSONLines[Record](w) }

// ReadJSONLines parses a JSON-lines artifact back into records of type T:
// Record for a -json file, AccuracyRecord for a ledger. It is strict: a
// field T does not declare is an error, so each record type rejects the
// other's file. Whitespace between records, blank lines included, is
// skipped.
func ReadJSONLines[T any](r io.Reader) ([]T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []T
	for {
		var rec T
		switch err := dec.Decode(&rec); err {
		case nil:
			out = append(out, rec)
		case io.EOF:
			return out, nil
		default:
			return nil, fmt.Errorf("harness: record %d: %w", len(out)+1, err)
		}
	}
}
