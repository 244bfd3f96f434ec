package core

import (
	"math"

	"photon/internal/core/bbv"
)

// KernelRecord summarizes one completed kernel invocation for kernel-
// sampling (Figure 12): its GPU BBV, warp count, total instruction count and
// (measured or predicted) execution time.
type KernelRecord struct {
	Name    string
	GPU     bbv.GPUBBV
	Warps   int
	Insts   float64
	SimTime float64
}

// IPC returns the record's instructions per cycle.
func (r KernelRecord) IPC() float64 {
	if r.SimTime == 0 {
		return 0
	}
	return r.Insts / r.SimTime
}

// History holds prior kernels and implements the paper's matching rule:
// candidates within the GPU BBV distance threshold, choosing the one with
// the closest warp count, and requiring an exact warp-count match when the
// querying kernel has fewer warps than the GPU has compute units (such
// kernels see less resource competition, so their IPC is count-sensitive).
type History struct {
	distThreshold float64
	numCUs        int
	recs          []KernelRecord
}

// NewHistory creates an empty history for a GPU with numCUs compute units.
func NewHistory(distThreshold float64, numCUs int) *History {
	return &History{distThreshold: distThreshold, numCUs: numCUs}
}

// Len returns the number of recorded kernels.
func (h *History) Len() int { return len(h.recs) }

// Records returns the recorded kernels in completion order. The slice is the
// history's own; callers must not modify it.
func (h *History) Records() []KernelRecord { return h.recs }

// Add records a completed kernel.
func (h *History) Add(r KernelRecord) { h.recs = append(h.recs, r) }

// Matching guards beyond the BBV distance, following the paper's
// observation that "kernels with similar BBVs and the same number of warps
// have a higher similarity than kernels with solely similar BBVs":
// candidates whose warp count or per-warp dynamic instruction count diverge
// too far from the query are rejected, since their IPC (and hence the
// extrapolation) is not transferable. The instruction guard also protects
// against data-dependent kernels (e.g. frontier-based BFS levels) whose
// BBVs look alike while their work differs by orders of magnitude.
const (
	maxWarpRatio     = 2.0
	maxWarpInstRatio = 1.5
)

func ratioTooFar(a, b, limit float64) bool {
	if a <= 0 || b <= 0 {
		return true
	}
	r := a / b
	if r < 1 {
		r = 1 / r
	}
	return r > limit
}

// Match finds the prior kernel to predict from, per Figure 12 steps 2-3.
// meanWarpInsts is the query kernel's per-warp dynamic instruction count
// from the online analysis.
func (h *History) Match(g bbv.GPUBBV, warps int, meanWarpInsts float64) (KernelRecord, bool) {
	best := -1
	bestWarpDiff := math.MaxInt
	bestDist := math.Inf(1)
	for i, r := range h.recs {
		d := bbv.Distance(g, r.GPU)
		if d >= h.distThreshold {
			continue
		}
		if warps < h.numCUs && r.Warps != warps {
			continue
		}
		if ratioTooFar(float64(r.Warps), float64(warps), maxWarpRatio) {
			continue
		}
		if r.Warps > 0 && ratioTooFar(r.Insts/float64(r.Warps), meanWarpInsts, maxWarpInstRatio) {
			continue
		}
		diff := r.Warps - warps
		if diff < 0 {
			diff = -diff
		}
		if diff < bestWarpDiff || (diff == bestWarpDiff && d < bestDist) {
			best = i
			bestWarpDiff = diff
			bestDist = d
		}
	}
	if best < 0 {
		return KernelRecord{}, false
	}
	return h.recs[best], true
}
