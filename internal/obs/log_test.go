package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilLoggerIsInert(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", slog.String("k", "v"))
	l.Warn("x")
	l.Error("x")
	if l.Enabled(slog.LevelError) {
		t.Fatal("nil logger must report every level disabled")
	}
	if l.With(slog.String("a", "b")) != nil {
		t.Fatal("With on nil must stay nil")
	}
	if l.WithRateLimit(10, time.Second) != nil {
		t.Fatal("WithRateLimit on nil must stay nil")
	}
	if l.Suppressed() != 0 {
		t.Fatal("nil logger has no suppressed records")
	}
}

func TestLoggerLevelsAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONLogger(&buf, slog.LevelInfo)
	l.Debug("hidden")
	l.Info("shown", slog.Int("kernel", 7))
	if l.Enabled(slog.LevelDebug) {
		t.Fatal("debug must be disabled at info level")
	}
	if !l.Enabled(slog.LevelWarn) {
		t.Fatal("warn must be enabled at info level")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 record, got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "shown" || rec["kernel"] != float64(7) {
		t.Fatalf("bad record: %v", rec)
	}
}

func TestLoggerWithScopesAttrs(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONLogger(&buf, slog.LevelInfo).With(slog.String("job", "abc123"))
	l.Info("scoped")
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["job"] != "abc123" {
		t.Fatalf("scope attr missing: %v", rec)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "bogus": slog.LevelInfo, "": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLoggerRateLimit(t *testing.T) {
	var buf bytes.Buffer
	l := NewTextLogger(&buf, slog.LevelInfo).WithRateLimit(5, time.Hour)
	for i := 0; i < 20; i++ {
		l.Info("spam")
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Fatalf("delivered %d records, want 5", got)
	}
	if got := l.Suppressed(); got != 15 {
		t.Fatalf("Suppressed() = %d, want 15", got)
	}
}

func TestLoggerRateLimitWindowRolls(t *testing.T) {
	var buf bytes.Buffer
	l := NewTextLogger(&buf, slog.LevelInfo).WithRateLimit(2, time.Nanosecond)
	// Every call lands in a fresh nanosecond window in practice, so nothing
	// should be suppressed across many sends with a tiny window.
	for i := 0; i < 10; i++ {
		l.Info("tick")
		time.Sleep(time.Microsecond)
	}
	if got := strings.Count(buf.String(), "\n"); got < 5 {
		t.Fatalf("window never rolled: only %d records delivered", got)
	}
}

func TestLoggerRateLimitConcurrent(t *testing.T) {
	var mu sync.Mutex
	var n int
	h := slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		n++
		mu.Unlock()
		return len(p), nil
	}), nil)
	l := NewLogger(h).WithRateLimit(100, time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("x")
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	delivered := n
	mu.Unlock()
	if delivered != 100 {
		t.Fatalf("delivered %d, want exactly 100", delivered)
	}
	if got := l.Suppressed(); got != 700 {
		t.Fatalf("Suppressed() = %d, want 700", got)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFanoutPerSinkLevels(t *testing.T) {
	var quiet, verbose bytes.Buffer
	l := NewLogger(Fanout(
		slog.NewTextHandler(&quiet, &slog.HandlerOptions{Level: slog.LevelWarn}),
		slog.NewJSONHandler(&verbose, &slog.HandlerOptions{Level: slog.LevelDebug}),
	))
	if !l.Enabled(slog.LevelDebug) {
		t.Fatal("fanout must be enabled when any sink is")
	}
	l.Debug("detail")
	l.Warn("trouble")
	if got := strings.Count(quiet.String(), "\n"); got != 1 {
		t.Fatalf("warn-level sink got %d records, want 1", got)
	}
	if got := strings.Count(verbose.String(), "\n"); got != 2 {
		t.Fatalf("debug-level sink got %d records, want 2", got)
	}
}

func TestFanoutDropsNilHandlers(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(Fanout(nil, slog.NewTextHandler(&buf, nil), nil))
	l.Info("ok")
	if !strings.Contains(buf.String(), "ok") {
		t.Fatal("record lost through fanout with nil members")
	}
}

func TestFanoutWithAttrsPropagates(t *testing.T) {
	var a, b bytes.Buffer
	l := NewLogger(Fanout(
		slog.NewJSONHandler(&a, nil),
		slog.NewJSONHandler(&b, nil),
	)).With(slog.String("worker", "3"))
	l.Info("x")
	for name, buf := range map[string]*bytes.Buffer{"a": &a, "b": &b} {
		var rec map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["worker"] != "3" {
			t.Fatalf("sink %s missing scoped attr: %v", name, rec)
		}
	}
}
