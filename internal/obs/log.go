package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Structured logging: a thin, nil-safe wrapper over log/slog shared by every
// long-lived component (photon-serve, the harness engine, the Photon
// controller, the timing machine). A nil *Logger is the "logging off"
// logger — every method is a no-op and, called without attrs (or behind an
// Enabled guard), touches neither the allocator nor the handler, so
// instrumented hot paths cost a nil check when logging is disabled.
//
// Call sites that build attrs must guard with Enabled, exactly like slog
// itself recommends: the variadic attr slice is materialized by the caller,
// so only the guard keeps a disabled level allocation-free.

// Logger routes records to a slog.Handler. The record is the one
// control-plane event: stderr, a job's SSE hub and the flight ring
// (FlightRecorder.Handler) are all handlers under one Fanout. Levels live in
// the handler(s): a text handler at Info next to a hub handler at Debug gives
// each sink its own threshold, and Enabled reports true when any sink wants
// the record.
type Logger struct {
	h slog.Handler

	// Rate limiting (shared by With/Hook descendants created after
	// WithRateLimit): at most max records per window; excess is counted,
	// not delivered.
	rl *rateLimiter
}

type rateLimiter struct {
	max         int64
	window      int64        // ns
	windowStart atomic.Int64 // unix ns of the current window's start
	count       atomic.Int64
	suppressed  atomic.Uint64
}

// allow reports whether one more record fits the current window.
func (r *rateLimiter) allow(now int64) bool {
	start := r.windowStart.Load()
	if now-start >= r.window {
		// Roll the window. Only one racer wins the CAS; losers simply count
		// against the fresh window, which is the behavior we want anyway.
		if r.windowStart.CompareAndSwap(start, now) {
			r.count.Store(0)
		}
	}
	if r.count.Add(1) > r.max {
		r.suppressed.Add(1)
		return false
	}
	return true
}

// NewLogger wraps a slog.Handler. Pass nil to get the no-op logger.
func NewLogger(h slog.Handler) *Logger {
	if h == nil {
		return nil
	}
	return &Logger{h: h}
}

// NewTextLogger returns a logger writing logfmt-style text records to w at
// the given minimum level.
func NewTextLogger(w io.Writer, level slog.Leveler) *Logger {
	return NewLogger(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewJSONLogger returns a logger writing JSON records to w at the given
// minimum level.
func NewJSONLogger(w io.Writer, level slog.Leveler) *Logger {
	return NewLogger(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLevel resolves the CLI spellings of a log level; unknown strings
// fall back to Info.
func ParseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Handler exposes the logger's underlying slog.Handler (nil for the no-op
// logger), so callers can compose it into a Fanout with sinks of their own —
// photon-serve fans a job's records out to the daemon handler and the job's
// SSE hub at independent levels.
func (l *Logger) Handler() slog.Handler {
	if l == nil {
		return nil
	}
	return l.h
}

// Enabled reports whether a record at level would be delivered to at least
// one sink. Guard attr-building call sites with it; a nil logger reports
// false for every level.
func (l *Logger) Enabled(level slog.Level) bool {
	return l != nil && l.h.Enabled(context.Background(), level)
}

// With returns a logger whose records all carry attrs (the scope context:
// job hash, worker id, kernel index). A nil receiver stays nil.
func (l *Logger) With(attrs ...slog.Attr) *Logger {
	if l == nil || len(attrs) == 0 {
		return l
	}
	return &Logger{h: l.h.WithAttrs(attrs), rl: l.rl}
}

// WithRateLimit caps the logger (and loggers later derived from it) at max
// records per window; excess records are dropped and counted. It protects
// slow sinks — an SSE hub, a piped stderr — from per-kernel event floods.
func (l *Logger) WithRateLimit(max int, window time.Duration) *Logger {
	if l == nil || max <= 0 || window <= 0 {
		return l
	}
	return &Logger{h: l.h, rl: &rateLimiter{max: int64(max), window: int64(window)}}
}

// Suppressed returns how many records the rate limit dropped.
func (l *Logger) Suppressed() uint64 {
	if l == nil || l.rl == nil {
		return 0
	}
	return l.rl.suppressed.Load()
}

// Log delivers one record. Attrs are evaluated by the caller, so guard
// non-trivial sites with Enabled.
func (l *Logger) Log(level slog.Level, msg string, attrs ...slog.Attr) {
	if l == nil || !l.h.Enabled(context.Background(), level) {
		return
	}
	now := time.Now()
	if l.rl != nil && !l.rl.allow(now.UnixNano()) {
		return
	}
	r := slog.NewRecord(now, level, msg, 0)
	r.AddAttrs(attrs...)
	_ = l.h.Handle(context.Background(), r)
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, attrs ...slog.Attr) { l.Log(slog.LevelDebug, msg, attrs...) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, attrs ...slog.Attr) { l.Log(slog.LevelInfo, msg, attrs...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, attrs ...slog.Attr) { l.Log(slog.LevelWarn, msg, attrs...) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, attrs ...slog.Attr) { l.Log(slog.LevelError, msg, attrs...) }

// Fanout combines handlers into one: Enabled when any is, Handle delivers
// to each handler that wants the record's level. It is how one Logger
// serves sinks with different thresholds (stderr at Info, an SSE hub and
// the flight ring at Debug). Nil handlers are dropped; with none left the
// result is nil, which NewLogger turns into the no-op logger.
func Fanout(handlers ...slog.Handler) slog.Handler {
	hs := make([]slog.Handler, 0, len(handlers))
	for _, h := range handlers {
		if h != nil {
			hs = append(hs, h)
		}
	}
	switch len(hs) {
	case 0:
		return nil
	case 1:
		return hs[0]
	}
	return fanoutHandler(hs)
}

type fanoutHandler []slog.Handler

func (f fanoutHandler) Enabled(ctx context.Context, level slog.Level) bool {
	for _, h := range f {
		if h.Enabled(ctx, level) {
			return true
		}
	}
	return false
}

func (f fanoutHandler) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, h := range f {
		if !h.Enabled(ctx, r.Level) {
			continue
		}
		if err := h.Handle(ctx, r.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f fanoutHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make(fanoutHandler, len(f))
	for i, h := range f {
		out[i] = h.WithAttrs(attrs)
	}
	return out
}

func (f fanoutHandler) WithGroup(name string) slog.Handler {
	out := make(fanoutHandler, len(f))
	for i, h := range f {
		out[i] = h.WithGroup(name)
	}
	return out
}
