package stats

import (
	"math"
	"testing"
	"time"

	"photon/internal/sim/event"
	"photon/internal/sim/isa"
)

func TestIPCCollector(t *testing.T) {
	c := NewIPCCollector(100)
	for i := 0; i < 50; i++ {
		c.OnInstIssued(event.Time(i), 0, nil, isa.FUScalar, 1)
	}
	for i := 0; i < 10; i++ {
		c.OnInstIssued(event.Time(250+i), 0, nil, isa.FUScalar, 1)
	}
	s := c.Series()
	if len(s) != 3 {
		t.Fatalf("series length %d, want 3", len(s))
	}
	// Full windows divide by the window width; the final window only spans
	// cycles [200, 259] so its 10 instructions divide by 60, not 100.
	if s[0] != 0.5 || s[1] != 0 || s[2] != 10.0/60.0 {
		t.Fatalf("series = %v", s)
	}
	if c.Total() != 60 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestIPCCollectorTailWindowNotBiased(t *testing.T) {
	// A run at a perfectly steady 1 inst/cycle must report IPC 1.0 in every
	// window, including a final partial one. The old code divided the tail
	// bin by the full window width, reporting 0.5 here.
	c := NewIPCCollector(100)
	for i := 0; i < 150; i++ {
		c.OnInstIssued(event.Time(i), 0, nil, isa.FUScalar, 1)
	}
	s := c.Series()
	if len(s) != 2 {
		t.Fatalf("series length %d, want 2", len(s))
	}
	if s[0] != 1 || s[1] != 1 {
		t.Fatalf("steady-state series = %v, want [1 1]", s)
	}
}

func TestIPCCollectorReset(t *testing.T) {
	c := NewIPCCollector(100)
	for i := 0; i < 150; i++ {
		c.OnInstIssued(event.Time(i), 0, nil, isa.FUScalar, 1)
	}
	c.Reset()
	if c.Total() != 0 || len(c.Series()) != 0 {
		t.Fatalf("post-Reset total=%d series=%v", c.Total(), c.Series())
	}
	// Reused for a "next kernel" whose clock restarts at zero: the series
	// must describe only the new kernel — no leading empty bins, no leakage
	// from the previous one.
	for i := 0; i < 50; i++ {
		c.OnInstIssued(event.Time(i), 0, nil, isa.FUScalar, 1)
	}
	s := c.Series()
	if len(s) != 1 {
		t.Fatalf("series length after reuse = %d, want 1", len(s))
	}
	if s[0] != 1 {
		t.Fatalf("reused series = %v, want [1]", s)
	}
	if c.Total() != 50 {
		t.Fatalf("total after reuse = %d", c.Total())
	}
}

func TestIPCCollectorRejectsBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero window")
		}
	}()
	NewIPCCollector(0)
}

func TestAbsErrorPct(t *testing.T) {
	if got := AbsErrorPct(100, 110); got != 10 {
		t.Fatalf("AbsErrorPct = %v", got)
	}
	if got := AbsErrorPct(100, 90); got != 10 {
		t.Fatalf("AbsErrorPct symmetric = %v", got)
	}
	if got := AbsErrorPct(0, 5); got != 0 {
		t.Fatalf("zero baseline = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Fatalf("Speedup = %v", got)
	}
	if !math.IsInf(Speedup(time.Second, 0), 1) {
		t.Fatal("zero denominator should be +Inf")
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-input stats nonzero")
	}
}
