// Package stats provides measurement utilities shared by the experiments:
// an IPC-over-time collector (the quantity PKA monitors and the paper's
// Figure 1 plots), error and speedup metrics, and small numeric helpers.
package stats

import (
	"math"
	"time"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
)

// IPCCollector accumulates instructions issued into fixed-width time
// windows, yielding an IPC series (warp instructions per cycle per window).
type IPCCollector struct {
	Window event.Time
	bins   []uint64
	total  uint64
	// last is the latest issue time observed; the final window only spans
	// [lastFullBinStart, last], so Series divides that bin by its real width
	// instead of the full Window (which would bias the tail IPC low).
	last event.Time
}

// NewIPCCollector creates a collector with the given window width in cycles.
func NewIPCCollector(window event.Time) *IPCCollector {
	if window <= 0 {
		panic("stats: IPC window must be positive")
	}
	return &IPCCollector{Window: window}
}

// OnInstIssued records one issue at time now (a timing.Observer's InstIssued).
func (c *IPCCollector) OnInstIssued(now event.Time, cuID int, w *emu.Warp, class isa.FUClass, lat event.Time) {
	idx := int(now / c.Window)
	for idx >= len(c.bins) {
		c.bins = append(c.bins, 0)
	}
	c.bins[idx]++
	c.total++
	if now > c.last {
		c.last = now
	}
}

// Total returns the total instructions observed.
func (c *IPCCollector) Total() uint64 { return c.total }

// Reset clears the collected series so the collector can be reused for the
// next kernel. Each timing machine restarts its clock at cycle zero, so a
// collector carried across kernels without Reset would fold every kernel
// into the same leading windows (and, for observers that see absolute
// clocks, manufacture empty leading bins) — either way corrupting the
// variance signal PKA-style monitors read from the series.
func (c *IPCCollector) Reset() {
	c.bins = c.bins[:0]
	c.total = 0
	c.last = 0
}

// Series returns the per-window IPC values. The final window is divided by
// the width it actually spans — from its start to the last observed issue,
// inclusive — not the full Window, so a run that stops mid-window reports
// the true tail IPC.
func (c *IPCCollector) Series() []float64 {
	out := make([]float64, len(c.bins))
	for i, b := range c.bins {
		width := c.Window
		if i == len(c.bins)-1 {
			width = c.last - event.Time(i)*c.Window + 1
		}
		out[i] = float64(b) / float64(width)
	}
	return out
}

// AbsErrorPct returns the paper's accuracy metric:
// |T_full - T_sampled| / T_full * 100.
func AbsErrorPct(full, sampled float64) float64 {
	if full == 0 {
		return 0
	}
	return math.Abs(full-sampled) / full * 100
}

// Speedup returns WallTime_full / WallTime_sampled.
func Speedup(full, sampled time.Duration) float64 {
	if sampled <= 0 {
		return math.Inf(1)
	}
	return float64(full) / float64(sampled)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}
