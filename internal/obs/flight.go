package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Flight recorder: an always-on bounded ring of recent control-plane
// events. It is one sink of the log record, next to stderr and a job's SSE
// hub: components say a fact once through their Logger, and Handler keeps
// the records that carry a Kind attr — tier decisions, scheduler admissions,
// job lifecycle transitions, drain phases, panics. When a daemon wedges or
// panics, the last capacity events explain its recent past without a restart
// or a debugger. The ring is fixed at construction and recording into it
// never allocates, so it is cheap enough to leave on in production paths
// (see alloc_test.go for the pinned guarantee).

// FlightEvent is one entry in the recorder: the time and message of a log
// record plus the four attrs the ring keeps ("kind", "job", "tier",
// "value"). Fields beyond Kind/Msg are optional; zero values are omitted
// from JSON.
type FlightEvent struct {
	// Seq is the event's global sequence number (1-based, monotonically
	// increasing, never reset). Seq minus the ring capacity tells how many
	// older events were overwritten.
	Seq uint64 `json:"seq"`
	// TS is the wall-clock timestamp in nanoseconds since the Unix epoch.
	TS int64 `json:"ts_ns"`
	// Kind groups events for filtering: "tier", "sched", "job", "drain",
	// "panic", "signal".
	Kind string `json:"kind"`
	// Msg is the human-readable event description.
	Msg string `json:"msg,omitempty"`
	// Job is the owning job hash, when the event belongs to one.
	Job string `json:"job,omitempty"`
	// Tier is the sampling tier involved, for kind "tier".
	Tier string `json:"tier,omitempty"`
	// Value carries a kind-specific number (kernel index, queue depth,
	// error percentage).
	Value float64 `json:"value,omitempty"`
}

// FlightRecorder is a fixed-capacity ring buffer of FlightEvents, safe for
// concurrent use. The zero ring (nil recorder) drops everything.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []FlightEvent
	total uint64 // events ever recorded; ring holds the last min(total, cap)
}

// NewFlightRecorder returns a recorder keeping the last n events (n < 16
// is raised to 16, so a dump is never trivially empty).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 16 {
		n = 16
	}
	return &FlightRecorder{ring: make([]FlightEvent, n)}
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Total returns how many events were ever recorded (including overwritten
// ones).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// RecordEvent appends ev, stamping Seq and (if unset) TS. It never
// allocates: the event is copied into the preallocated ring slot. Nil
// recorders drop the event.
func (f *FlightRecorder) RecordEvent(ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	f.mu.Lock()
	f.total++
	ev.Seq = f.total
	f.ring[(f.total-1)%uint64(len(f.ring))] = ev
	f.mu.Unlock()
}

// Kind is the attr that routes a log record into the flight ring as well:
// Handler keeps exactly the records that carry it.
func Kind(kind string) slog.Attr { return slog.String("kind", kind) }

// Handler returns the ring as a slog.Handler, to be composed with the other
// sinks under Fanout (nil for the nil recorder, which Fanout drops). It is
// enabled at every level, ignores records without a "kind" attr, and copies
// the rest — time, message, and the string attrs "kind", "job", "tier" and
// numeric attr "value", whether on the record or bound by With — into the
// next ring slot without allocating.
func (f *FlightRecorder) Handler() slog.Handler {
	if f == nil {
		return nil
	}
	return flightHandler{ring: f}
}

// flightHandler adapts log records onto RecordEvent. bound holds the ring
// attrs a Logger.With scope carries (a job-scoped logger's job hash).
type flightHandler struct {
	ring  *FlightRecorder
	bound FlightEvent
}

func (h flightHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h flightHandler) Handle(_ context.Context, r slog.Record) error {
	ev := h.bound
	r.Attrs(func(a slog.Attr) bool {
		ev.setAttr(a)
		return true
	})
	if ev.Kind == "" {
		return nil
	}
	if !r.Time.IsZero() {
		ev.TS = r.Time.UnixNano()
	}
	ev.Msg = r.Message
	h.ring.RecordEvent(ev)
	return nil
}

func (h flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	for _, a := range attrs {
		h.bound.setAttr(a)
	}
	return h
}

func (h flightHandler) WithGroup(string) slog.Handler { return h }

// setAttr copies a into ev when it is one of the attrs the ring keeps. An
// attr of another type under one of those keys (the engine's integer "job"
// index) is not the ring's and is skipped rather than formatted.
func (ev *FlightEvent) setAttr(a slog.Attr) {
	v := a.Value
	if a.Key == "value" {
		switch v.Kind() {
		case slog.KindFloat64:
			ev.Value = v.Float64()
		case slog.KindInt64:
			ev.Value = float64(v.Int64())
		case slog.KindUint64:
			ev.Value = float64(v.Uint64())
		}
		return
	}
	if v.Kind() != slog.KindString {
		return
	}
	switch a.Key {
	case "kind":
		ev.Kind = v.String()
	case "job":
		ev.Job = v.String()
	case "tier":
		ev.Tier = v.String()
	}
}

// Snapshot returns the recorded events oldest-first. The slice is a copy;
// recording may continue concurrently.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.total
	capN := uint64(len(f.ring))
	if n > capN {
		n = capN
	}
	out := make([]FlightEvent, 0, n)
	// Oldest surviving event is total-n; slot of event with Seq s (1-based)
	// is (s-1) % cap.
	for i := f.total - n; i < f.total; i++ {
		out = append(out, f.ring[i%capN])
	}
	return out
}

// FlightDump is the JSON shape of a recorder dump (GET /debug/flight,
// photon-ctl flight, SIGQUIT).
type FlightDump struct {
	Cap    int           `json:"cap"`
	Total  uint64        `json:"total"`
	Events []FlightEvent `json:"events"`
}

// Dump captures the recorder state as a FlightDump.
func (f *FlightRecorder) Dump() FlightDump {
	return FlightDump{Cap: f.Cap(), Total: f.Total(), Events: f.Snapshot()}
}

// WriteJSON writes the dump as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Dump())
}

// WriteText writes the dump as one line per event, newest last — the
// format of the SIGQUIT stderr dump, built to be readable in a terminal
// next to a stack trace.
func (f *FlightRecorder) WriteText(w io.Writer) error {
	d := f.Dump()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events total, last %d:\n", d.Total, len(d.Events)); err != nil {
		return err
	}
	for _, ev := range d.Events {
		ts := time.Unix(0, ev.TS).UTC().Format("15:04:05.000")
		line := fmt.Sprintf("  #%d %s [%s]", ev.Seq, ts, ev.Kind)
		if ev.Job != "" {
			line += " job=" + shortHash(ev.Job)
		}
		if ev.Tier != "" {
			line += " tier=" + ev.Tier
		}
		if ev.Value != 0 {
			line += fmt.Sprintf(" value=%g", ev.Value)
		}
		if ev.Msg != "" {
			line += " " + ev.Msg
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// shortHash abbreviates a job hash for terminal output.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
