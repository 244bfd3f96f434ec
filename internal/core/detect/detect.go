// Package detect implements Photon's online stability detector: a rolling
// least-squares fit over the last n (issue time, retired time) pairs of a
// basic-block type or of warps (Section 4.1, Equation 1). A unit's timing is
// declared stable when the fitted slope a satisfies |1-a| < delta AND the
// mean execution duration of the most recent n samples differs from the
// previous n by less than delta — the paper's guard against locking onto a
// false "local optimum" plateau.
//
// Samples are integer cycle counts and the detector keeps only running sums
// of them, so every window statistic is a difference of two prefix sums: Add
// is O(1) and a query costs O(slopeGroups) whatever the window.
package detect

import "math"

// Detector is a rolling least-squares slope detector over the last 2n
// samples: the most recent n drive the regression, the n before feed the
// local-optimum guard.
//
// Exactness: window sums are formed in int64 and converted to float64 once,
// so every mean is exact while 2n times the spread of the times inside one
// 2n-sample window stays below 2^53 (at n = 2048: a spread of 2^41 cycles,
// 36 minutes of simulated 1 GHz time between the window's oldest issue and
// newest retire), and GlobalMeanDuration while the all-samples duration sum
// does. Absolute times may be anything: the running sums wrap modulo 2^64
// and differences of them do not care.
type Detector struct {
	n     int
	delta float64

	// sums is a ring of the last 2n+1 running (Σissue, Σretire) totals;
	// sums[head] is the total over every sample so far.
	sums  []prefix
	head  int
	count int

	warmupDur int64 // duration sum over the first n samples (the warm-up)
}

type prefix struct{ x, y int64 }

// New creates a detector with window n (per half) and threshold delta.
func New(n int, delta float64) *Detector {
	if n <= 1 || delta <= 0 {
		panic("detect: window must exceed 1 and delta must be positive")
	}
	return &Detector{n: n, delta: delta, sums: make([]prefix, 2*n+1)}
}

// Window returns the per-half window size n.
func (d *Detector) Window() int { return d.n }

// Count returns how many samples have been added.
func (d *Detector) Count() int { return d.count }

// Delta returns the stability threshold.
func (d *Detector) Delta() float64 { return d.delta }

// Add records one (issue, retire) observation, in cycles.
func (d *Detector) Add(issue, retire int64) {
	p := d.sums[d.head]
	p.x += issue
	p.y += retire
	if d.head++; d.head == len(d.sums) {
		d.head = 0
	}
	d.sums[d.head] = p
	d.count++
	if d.count == d.n {
		d.warmupDur = p.y - p.x
	}
}

// back returns the running totals as of k samples ago (0 <= k <= 2n).
func (d *Detector) back(k int) prefix {
	i := d.head - k
	if i < 0 {
		i += len(d.sums)
	}
	return d.sums[i]
}

// meanDur is the mean duration of the samples from `from` steps back (the
// oldest, inclusive) to `to` steps back (exclusive).
func (d *Detector) meanDur(from, to int) float64 {
	a, b := d.back(from), d.back(to)
	return float64((b.y-a.y)-(b.x-a.x)) / float64(from-to)
}

// halfMeans returns the mean duration of the last min(count, n) samples and,
// once 2n samples exist, of the n before them (0 until then).
func (d *Detector) halfMeans() (recent, prev float64) {
	if d.count == 0 {
		return 0, 0
	}
	recent = d.meanDur(min(d.count, d.n), 0)
	if d.count >= 2*d.n {
		prev = d.meanDur(2*d.n, d.n)
	}
	return recent, prev
}

// slopeGroups is how many consecutive-sample group means feed the
// least-squares fit. Regressing on group means instead of raw samples keeps
// Equation 1's form but removes the errors-in-variables attenuation that
// appears when many units retire in clumps (lockstep kernels like FIR):
// within a clump the retire times are equal while issue times vary, which
// biases a raw-sample slope toward zero even for perfectly stationary
// durations. Group means average that noise away by ~sqrt(group size) while
// any real duration trend across the window survives intact.
const slopeGroups = 8

// Slope returns the least-squares slope of Equation 1, computed over
// slopeGroups group means of the stored samples (up to the last 2n), rebased
// on the oldest issue time for numerical conditioning. ok is false (and a is
// 0) until at least n samples exist or when x is degenerate.
func (d *Detector) Slope() (a float64, ok bool) {
	m := min(d.count, 2*d.n)
	if m < d.n || m < slopeGroups {
		return 0, false
	}
	lo := d.back(m)
	x0 := d.back(m-1).x - lo.x
	per := m / slopeGroups
	var sx, sy, sxy, sxx float64
	for g := 0; g < slopeGroups; g++ {
		// Group 0 holds the oldest samples; the last takes the remainder.
		k := m - (g+1)*per
		if g == slopeGroups-1 {
			k = 0
		}
		hi := d.back(k)
		cnt := int64(m - g*per - k)
		gx := float64(hi.x-lo.x-cnt*x0) / float64(cnt)
		gy := float64(hi.y-lo.y-cnt*x0) / float64(cnt)
		sx += gx
		sy += gy
		sxy += gx * gy
		sxx += gx * gx
		lo = hi
	}
	den := sxx - sx*sx/slopeGroups
	if den == 0 {
		return 0, false
	}
	return (sxy - sx*sy/slopeGroups) / den, true
}

// MeanDuration returns the mean retire-issue duration over the last
// min(count, n) samples — the value warp-sampling predicts with ("the
// average time of the last n warps").
func (d *Detector) MeanDuration() float64 {
	recent, _ := d.halfMeans()
	return recent
}

// GlobalMeanDuration returns the mean duration over every sample after the
// first window (the warm-up: cold caches and the dispatch burst), falling
// back to the all-samples mean when fewer than 2n samples exist.
// Basic-block-sampling predicts with this: workloads whose block timing
// oscillates in dispatch waves much longer than the window would otherwise
// be predicted from whatever phase of the wave the switch landed on.
func (d *Detector) GlobalMeanDuration() float64 {
	if d.count == 0 {
		return 0
	}
	all := d.back(0)
	total := all.y - all.x
	if d.count >= 2*d.n {
		return float64(total-d.warmupDur) / float64(d.count-d.n)
	}
	return float64(total) / float64(d.count)
}

// Stable reports whether the unit satisfies the full stability criterion:
// 2n samples, |1-a| < delta, and a recent-vs-previous mean-duration relative
// difference below delta.
func (d *Detector) Stable() bool {
	if d.count < 2*d.n {
		return false
	}
	if a, ok := d.Slope(); !ok || math.Abs(1-a) >= d.delta {
		return false
	}
	recent, prev := d.halfMeans()
	if prev == 0 {
		return recent == 0
	}
	return math.Abs(recent-prev)/prev < d.delta
}
