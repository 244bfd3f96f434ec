package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace-event record. The JSON field names are
// fixed by the trace-event format (chrome://tracing and Perfetto both load
// a plain JSON array of these).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since the buffer epoch
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// defaultTraceCap bounds buffered events so a runaway instrumentation loop
// cannot exhaust memory; overflow is counted, not silently discarded.
const defaultTraceCap = 1 << 20

// TraceBuffer collects spans and exports them as a Chrome trace-event JSON
// array. Safe for concurrent use; all methods are no-ops on a nil receiver,
// so tracing — like metrics — is optional at every call site.
type TraceBuffer struct {
	mu      sync.Mutex
	epoch   time.Time
	events  []TraceEvent
	cap     int
	dropped uint64
	onEvent func(TraceEvent)
}

// NewTraceBuffer returns an empty buffer whose timestamp epoch is now.
func NewTraceBuffer() *TraceBuffer {
	return &TraceBuffer{epoch: time.Now(), cap: defaultTraceCap}
}

// Since converts a wall-clock instant to buffer-epoch microseconds.
func (b *TraceBuffer) Since(t time.Time) float64 {
	return float64(t.Sub(b.epoch)) / float64(time.Microsecond)
}

func (b *TraceBuffer) add(ev TraceEvent) {
	b.mu.Lock()
	hook := b.onEvent
	if len(b.events) >= b.cap {
		b.dropped++
		b.mu.Unlock()
		return
	}
	b.events = append(b.events, ev)
	b.mu.Unlock()
	// The hook runs outside the lock so it may call back into the buffer
	// (or block briefly on a subscriber) without deadlocking emitters.
	if hook != nil {
		hook(ev)
	}
}

// OnEvent registers fn to be called for every event the buffer accepts
// (dropped events are not delivered). photon-serve uses this to stream
// engine-job and kernel spans as live progress events while the buffer
// keeps accumulating the downloadable trace. At most one hook is active;
// registering replaces the previous one, and a nil fn removes it. Call
// before emitters start: the hook is read under the buffer's mutex but
// invoked outside it, so fn must be safe for concurrent calls.
func (b *TraceBuffer) OnEvent(fn func(TraceEvent)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.onEvent = fn
	b.mu.Unlock()
}

// Complete records a complete ("X") span from start for duration d.
func (b *TraceBuffer) Complete(name, cat string, pid, tid int, start time.Time, d time.Duration, args map[string]any) {
	if b == nil {
		return
	}
	b.CompleteAt(name, cat, pid, tid, b.Since(start), float64(d)/float64(time.Microsecond), args)
}

// CompleteAt records a complete span with explicit microsecond timestamps;
// simulated-time spans (cycles mapped to µs) use this form.
func (b *TraceBuffer) CompleteAt(name, cat string, pid, tid int, tsMicros, durMicros float64, args map[string]any) {
	if b == nil {
		return
	}
	b.add(TraceEvent{Name: name, Cat: cat, Ph: "X", TS: tsMicros, Dur: durMicros, PID: pid, TID: tid, Args: args})
}

// NameThread records a thread_name metadata event so viewers label the
// (pid, tid) track (e.g. "worker 3").
func (b *TraceBuffer) NameThread(pid, tid int, name string) {
	if b == nil {
		return
	}
	b.add(TraceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}})
}

// NameProcess records a process_name metadata event.
func (b *TraceBuffer) NameProcess(pid int, name string) {
	if b == nil {
		return
	}
	b.add(TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
}

// Len returns the number of buffered events (0 for nil).
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Dropped returns how many events overflowed the buffer cap.
func (b *TraceBuffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// WriteJSON serializes the buffered events as a trace-event JSON array.
func (b *TraceBuffer) WriteJSON(w io.Writer) error {
	var events []TraceEvent
	if b != nil {
		b.mu.Lock()
		events = append(events, b.events...)
		b.mu.Unlock()
	}
	if events == nil {
		events = []TraceEvent{} // an empty trace is still a valid array
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteFile writes the trace-event array to path.
func (b *TraceBuffer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace to %s: %w", path, err)
	}
	return f.Close()
}
