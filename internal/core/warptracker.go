package core

import (
	"photon/internal/core/detect"
	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
)

// warpTracker implements warp-sampling's detection phase (Figure 10): it is
// armed only when the online analysis found a dominant warp type (share >=
// DominantWarpShare), and fires when the least-squares fit over the last
// WarpWindow warps' (issue, retired) pairs is stable. Once switched, Photon
// simulates only the scheduler: every remaining warp is predicted to take
// the mean duration of the last window.
type warpTracker struct {
	det    *detect.Detector
	params Params
	// minRetires delays the switch until one machine generation retired;
	// see bbTracker.minWarpRetires.
	minRetires int
	retires    int
	triggered  bool

	// Telemetry handles (nil-safe no-ops when no registry is attached).
	accepts, rejects *obs.Counter
}

func newWarpTracker(params Params, minRetires int) *warpTracker {
	return &warpTracker{
		det:        detect.New(params.WarpWindow, params.Delta),
		params:     params,
		minRetires: minRetires,
	}
}

// setMetrics attaches the detector's telemetry counters.
func (t *warpTracker) setMetrics(reg *obs.Registry) {
	t.accepts = reg.Counter("photon_warp_stability_checks_total", obs.L("verdict", "accept"))
	t.rejects = reg.Counter("photon_warp_stability_checks_total", obs.L("verdict", "reject"))
}

// OnWarpRetired feeds one warp's (issue, retired) pair to the detector.
func (t *warpTracker) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	if t.triggered {
		return
	}
	t.det.Add(int64(issue), int64(now))
	t.retires++
	if t.retires >= t.minRetires && t.retires%t.params.CheckInterval == 0 {
		if t.det.Stable() {
			t.triggered = true
			t.accepts.Inc()
		} else {
			t.rejects.Inc()
		}
	}
}

// meanWarpTime is the predicted duration of each remaining warp.
func (t *warpTracker) meanWarpTime() float64 { return t.det.MeanDuration() }
