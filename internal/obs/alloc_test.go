package obs

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"photon/internal/testutil"
)

// TestNilRegistryZeroAlloc pins the no-op telemetry path: with no registry
// attached (nil *Registry and the nil metric handles it returns),
// instrumented code must not touch the allocator.
func TestNilRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("sim_test_counter")
	g := r.Gauge("sim_test_gauge")
	testutil.MustZeroAllocs(t, "obs nil-registry no-op path", func() {
		r.Counter("sim_test_counter").Add(1)
		r.Gauge("sim_test_gauge").Set(2)
		c.Add(3)
		c.Inc()
		g.Set(4)
	})
}

// TestDisabledLoggerZeroAlloc pins the logging-off path. Two shapes
// matter: the nil logger (logging never configured), and a real logger
// whose level filters the record out. In both, attr-free calls and
// Enabled-guarded attr calls must not allocate — variadic attr slices
// escape at the call site, so hot paths are written with the guard, and
// this test keeps that contract honest.
func TestDisabledLoggerZeroAlloc(t *testing.T) {
	var nilLogger *Logger
	quiet := NewTextLogger(io.Discard, slog.LevelInfo) // debug disabled
	testutil.MustZeroAllocs(t, "obs disabled-logger path", func() {
		nilLogger.Info("msg")
		nilLogger.Debug("msg")
		if nilLogger.Enabled(slog.LevelInfo) {
			nilLogger.Info("msg", slog.Int("k", 1))
		}
		quiet.Debug("msg")
		if quiet.Enabled(slog.LevelDebug) {
			quiet.Debug("msg", slog.Int("kernel", 3), slog.String("tier", "full"))
		}
	})
}

// TestFlightRecordZeroAlloc pins the always-on flight-recorder hot path:
// recording into the preallocated ring must not allocate — neither the
// RecordEvent primitive nor the log-record handler in front of it, for a
// record whose attrs fit slog's inline five — so components can leave the
// ring attached in production paths.
func TestFlightRecordZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(256)
	ev := FlightEvent{Kind: "tier", Tier: "bb-sampling", Job: "cafe", Value: 7}
	var nilRec *FlightRecorder
	testutil.MustZeroAllocs(t, "obs flight-record path", func() {
		f.RecordEvent(ev)
		nilRec.RecordEvent(ev)
	})

	h := f.Handler().WithAttrs([]slog.Attr{slog.String("job", "cafe")})
	rec := slog.NewRecord(time.Now(), slog.LevelDebug, "tier decision: conv1", 0)
	rec.AddAttrs(Kind("tier"), slog.String("tier", "bb-sampling"), slog.Int("value", 7),
		slog.String("kernel", "conv1"), slog.Uint64("insts", 4096))
	plain := slog.NewRecord(time.Now(), slog.LevelInfo, "no kind: not the ring's", 0)
	plain.AddAttrs(slog.Int("job", 3))
	ctx := context.Background()
	before := f.Total()
	testutil.MustZeroAllocs(t, "obs flight-handler path", func() {
		_ = h.Handle(ctx, rec)
		_ = h.Handle(ctx, plain)
	})
	if f.Total() == before {
		t.Fatal("handler recorded nothing")
	}
}
