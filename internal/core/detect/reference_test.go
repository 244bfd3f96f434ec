package detect

import (
	"math"
	"math/rand"
	"testing"
)

// refDetector is the windowed detector Detector replaced, kept as the
// reference of the differential tests: a float64 ring of the last 2n samples,
// re-summed sample by sample on every query. The production detector must
// answer every query with the same float64, bit for bit.
type refDetector struct {
	n     int
	delta float64

	xs, ys []float64 // ring of the last 2n samples
	head   int
	count  int

	totalDur  float64 // duration sum over ALL samples ever added
	warmupDur float64 // duration sum over the first n samples (the warm-up)
}

func newRef(n int, delta float64) *refDetector {
	return &refDetector{n: n, delta: delta, xs: make([]float64, 2*n), ys: make([]float64, 2*n)}
}

func (d *refDetector) Add(issue, retire int64) {
	x, y := float64(issue), float64(retire)
	d.xs[d.head] = x
	d.ys[d.head] = y
	d.head = (d.head + 1) % len(d.xs)
	d.count++
	d.totalDur += y - x
	if d.count <= d.n {
		d.warmupDur += y - x
	}
}

// at returns the sample i steps back (i=1 is the newest).
func (d *refDetector) at(i int) (x, y float64) {
	idx := (d.head - i + 2*len(d.xs)) % len(d.xs)
	return d.xs[idx], d.ys[idx]
}

func (d *refDetector) halfMeans() (recent, prev float64) {
	k := min(d.count, d.n)
	if k == 0 {
		return 0, 0
	}
	var dur float64
	for i := k; i >= 1; i-- {
		xr, yr := d.at(i)
		dur += yr - xr
	}
	recent = dur / float64(k)
	if d.count >= 2*d.n {
		var p float64
		for i := d.n + 1; i <= 2*d.n; i++ {
			xr, yr := d.at(i)
			p += yr - xr
		}
		prev = p / float64(d.n)
	}
	return recent, prev
}

func (d *refDetector) Slope() (float64, bool) {
	m := min(d.count, 2*d.n)
	if m < d.n || m < slopeGroups {
		return 0, false
	}
	x0, _ := d.at(m)
	var gx, gy [slopeGroups]float64
	per := m / slopeGroups
	for g := 0; g < slopeGroups; g++ {
		lo := m - g*per
		hi := lo - per
		if g == slopeGroups-1 {
			hi = 0
		}
		cnt := 0.0
		for i := lo; i > hi; i-- {
			xr, yr := d.at(i)
			gx[g] += xr - x0
			gy[g] += yr - x0
			cnt++
		}
		gx[g] /= cnt
		gy[g] /= cnt
	}
	var sx, sy, sxy, sxx float64
	for g := 0; g < slopeGroups; g++ {
		sx += gx[g]
		sy += gy[g]
		sxy += gx[g] * gy[g]
		sxx += gx[g] * gx[g]
	}
	den := sxx - sx*sx/slopeGroups
	if den == 0 {
		return 0, false
	}
	return (sxy - sx*sy/slopeGroups) / den, true
}

func (d *refDetector) MeanDuration() float64 {
	recent, _ := d.halfMeans()
	return recent
}

func (d *refDetector) GlobalMeanDuration() float64 {
	if d.count == 0 {
		return 0
	}
	if d.count >= 2*d.n {
		return (d.totalDur - d.warmupDur) / float64(d.count-d.n)
	}
	return d.totalDur / float64(d.count)
}

func (d *refDetector) Stable() bool {
	if d.count < 2*d.n {
		return false
	}
	a, ok := d.Slope()
	if !ok || math.Abs(1-a) >= d.delta {
		return false
	}
	recent, prev := d.halfMeans()
	if prev == 0 {
		return recent == 0
	}
	return math.Abs(recent-prev)/prev < d.delta
}

// pair feeds a Detector and its reference the same samples and compares
// every query after every Add with ==, never a tolerance.
type pair struct {
	t   testing.TB
	d   *Detector
	ref *refDetector
}

func newPair(t testing.TB, n int) *pair {
	return &pair{t: t, d: New(n, 0.03), ref: newRef(n, 0.03)}
}

func (p *pair) add(issue, retire int64) {
	p.t.Helper()
	p.feed(issue, retire)
	p.compare()
}

func (p *pair) feed(issue, retire int64) {
	p.d.Add(issue, retire)
	p.ref.Add(issue, retire)
}

func (p *pair) compare() {
	p.t.Helper()
	a, ok := p.d.Slope()
	ra, rok := p.ref.Slope()
	recent, prev := p.d.halfMeans()
	rrecent, rprev := p.ref.halfMeans()
	if a != ra || ok != rok || recent != rrecent || prev != rprev ||
		p.d.MeanDuration() != p.ref.MeanDuration() ||
		p.d.GlobalMeanDuration() != p.ref.GlobalMeanDuration() ||
		p.d.Stable() != p.ref.Stable() {
		p.t.Fatalf("n=%d count=%d: slope %v,%v vs ref %v,%v; half means %v,%v vs %v,%v; global %v vs %v; stable %v vs %v",
			p.d.n, p.d.count, a, ok, ra, rok, recent, prev, rrecent, rprev,
			p.d.GlobalMeanDuration(), p.ref.GlobalMeanDuration(), p.d.Stable(), p.ref.Stable())
	}
}

// TestMatchesReferenceOnSeededStreams: windows 2..2048, each fed past n, 2n
// and several ring wraps, with noisy steps and durations, phase shifts that
// flip Stable both ways, and issue times that are not monotonic.
func TestMatchesReferenceOnSeededStreams(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 100, 256, 1024, 2048} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := newPair(t, n)
		total := 9*n + 5 // > four wraps of the 2n+1 ring
		if n >= 1024 {
			total = 5*n + 3
		}
		x, dur := int64(rng.Intn(1_000_000)), int64(500)
		for i := 0; i < total; i++ {
			if i%(3*n) == 2*n { // a plateau shift every third window
				dur += int64(rng.Intn(400)) - 100
			}
			jitter := int64(rng.Intn(7)) - 3
			p.add(x+jitter, x+jitter+dur+int64(rng.Intn(5)))
			x += int64(rng.Intn(40))
		}
	}
}

// TestMatchesReferenceOnClumpedRetirements is the FIR pattern: whole clumps
// share one retire time while issue times vary inside the clump.
func TestMatchesReferenceOnClumpedRetirements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := newPair(t, 256)
	base := int64(0)
	for clump := 0; clump < 40; clump++ {
		retire := base + 4000
		for i := int64(0); i < 64; i++ {
			p.add(base+i*20+int64(rng.Intn(10)), retire)
		}
		base += 1300
	}
	if !p.d.Stable() {
		t.Fatal("clumped stationary series rejected")
	}
}

// TestMatchesReferenceOnDegenerateX: runs of identical issue times make the
// regression denominator exactly zero in both, then recover together.
func TestMatchesReferenceOnDegenerateX(t *testing.T) {
	p := newPair(t, 8)
	for i := 0; i < 40; i++ {
		p.add(500, 600)
	}
	for i := int64(0); i < 40; i++ {
		p.add(1000+10*i, 1100+10*i)
	}
	for i := 0; i < 20; i++ {
		p.add(0, 0)
	}
}

// TestMatchesReferenceNearTheBound runs a large grid's worth of warp
// retirements (largegrid_test.go: 102 400 warps) through the production
// window at both documented bounds: issue times drift by up to 2^53/2n across
// one 2n-sample window, durations are sized so the all-samples duration sum
// ends just under 2^53, and absolute times are large enough that the running
// int64 sums wrap every 2n samples. The int64 window sums and the reference's
// float64 accumulation must still agree exactly.
func TestMatchesReferenceNearTheBound(t *testing.T) {
	const n, warps = 2048, 102_400
	const spread = int64(1) << 53 / (2 * n) // per-window budget for t - x0
	const dur = int64(1) << 36              // warps * dur = 2^52.6
	rng := rand.New(rand.NewSource(53))
	p := newPair(t, n)
	x := int64(1) << 52 // float64(x) is still exact; 2n of them overflow int64
	for i := 0; i < warps; i++ {
		p.feed(x, x+dur+rng.Int63n(1<<20))
		x += rng.Int63n((spread - 2*dur) / (2 * n))
		// The reference costs O(n) a query: compare through the first ring
		// wrap, then at a stride coprime to the ring length.
		if i < 2*n+64 || i%61 == 0 {
			p.compare()
		}
	}
	p.compare()
	if total := p.d.sums[p.d.head]; total.y-total.x <= 1<<52 || x >= 1<<53 {
		t.Fatalf("stream missed the bounds it is meant to sit under: duration sum %d, last issue %d", total.y-total.x, x)
	}
	if !p.d.Stable() {
		t.Fatal("stationary series at the bound rejected")
	}
}
