package detect

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func feedLinear(d *Detector, n int, startX, stepX, dur int64) {
	x := startX
	for i := 0; i < n; i++ {
		d.Add(x, x+dur)
		x += stepX
	}
}

func TestStableSeriesDetected(t *testing.T) {
	d := New(64, 0.03)
	feedLinear(d, 128, 0, 10, 50)
	if !d.Stable() {
		a, ok := d.Slope()
		t.Fatalf("constant-duration series not stable (slope=%v ok=%v)", a, ok)
	}
	if got := d.MeanDuration(); got != 50 {
		t.Fatalf("MeanDuration = %v, want 50", got)
	}
}

func TestNotStableBeforeTwoWindows(t *testing.T) {
	d := New(64, 0.03)
	feedLinear(d, 127, 0, 10, 50)
	if d.Stable() {
		t.Fatal("stable with fewer than 2n samples")
	}
}

func TestGrowingDurationsNotStable(t *testing.T) {
	d := New(64, 0.03)
	x, dur := int64(0), int64(100)
	for i := 0; i < 256; i++ {
		d.Add(x, x+dur)
		x += 10
		dur += (dur + 49) / 50 // durations keep growing ~2 % a sample: slope pulls away from 1
	}
	if d.Stable() {
		a, _ := d.Slope()
		t.Fatalf("growing-duration series declared stable (slope=%v)", a)
	}
}

func TestSlopeValue(t *testing.T) {
	// y = 2x + 5 gives slope exactly 2.
	d := New(32, 0.03)
	for i := 0; i < 32; i++ {
		x := int64(i * 7)
		d.Add(x, 2*x+5)
	}
	a, ok := d.Slope()
	if !ok || a < 1.999 || a > 2.001 {
		t.Fatalf("Slope = %v, %v; want 2", a, ok)
	}
}

func TestLocalOptimumGuard(t *testing.T) {
	// First window: duration 10; second window: duration 20. The recent
	// window alone looks perfectly stable (slope 1), but the mean-duration
	// guard must reject the plateau shift.
	d := New(32, 0.03)
	feedLinear(d, 32, 0, 10, 10)
	feedLinear(d, 32, 320, 10, 20)
	if a, ok := d.Slope(); !ok || a < 0.97 || a > 1.03 {
		t.Fatalf("recent slope = %v, expected ~1", a)
	}
	if d.Stable() {
		t.Fatal("plateau shift not caught by the 2n mean guard")
	}
	// One more full window at 20 and it is genuinely stable.
	feedLinear(d, 32, 640, 10, 20)
	if !d.Stable() {
		t.Fatal("stationary series after plateau not detected")
	}
}

func TestDegenerateXNotStable(t *testing.T) {
	d := New(8, 0.03)
	for i := 0; i < 16; i++ {
		d.Add(100, 150) // identical x: slope undefined
	}
	if _, ok := d.Slope(); ok {
		t.Fatal("slope defined for degenerate x")
	}
	if d.Stable() {
		t.Fatal("degenerate series declared stable")
	}
}

func TestLargeTimestampsWellConditioned(t *testing.T) {
	// Late in a long kernel, timestamps are ~1e9; rebasing must keep the
	// slope accurate.
	d := New(128, 0.03)
	feedLinear(d, 256, 1e9, 12, 77)
	a, ok := d.Slope()
	if !ok || a < 0.999 || a > 1.001 {
		t.Fatalf("slope at large offsets = %v, want ~1", a)
	}
	if !d.Stable() {
		t.Fatal("stable series at large timestamps rejected")
	}
}

func TestNoisyButStationarySeriesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := New(256, 0.03)
	x := int64(0)
	for i := 0; i < 1024; i++ {
		dur := 100 + rng.Int63n(5) // small bounded noise
		d.Add(x, x+dur)
		x += 25
	}
	if !d.Stable() {
		a, _ := d.Slope()
		t.Fatalf("stationary noisy series rejected (slope=%v)", a)
	}
}

func TestWindowAccessors(t *testing.T) {
	d := New(16, 0.05)
	if d.Window() != 16 || d.Delta() != 0.05 || d.Count() != 0 {
		t.Fatal("accessors wrong")
	}
	d.Add(1, 2)
	if d.Count() != 1 {
		t.Fatal("count not incremented")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, ...) did not panic")
		}
	}()
	New(1, 0.03)
}

// Property: for any affine series y = a*x + b with a near 1 and spread x,
// the detector recovers the slope to within 1e-6. Cycle counts are integers,
// so a is the rational p/q and x walks the multiples of q.
func TestPropertySlopeRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const q = 1000
		p := 500 + rng.Int63n(1000) // slope in [0.5, 1.5)
		a := float64(p) / q
		b := rng.Int63n(1000)
		d := New(64, 0.03)
		k := rng.Int63n(1000)
		for i := 0; i < 64; i++ {
			d.Add(q*k, p*k+b)
			k += 1 + rng.Int63n(100)
		}
		got, ok := d.Slope()
		if !ok {
			return false
		}
		diff := got - a
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestClumpedRetirementsStillStable reproduces the lockstep-kernel pattern
// (FIR): retirements arrive in clumps where many samples share one retire
// time while issue times vary. A raw-sample regression suffers attenuation
// (slope << 1); the grouped estimator must still find slope ~1 for
// stationary durations.
func TestClumpedRetirementsStillStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := New(256, 0.03)
	base := int64(0)
	for clump := 0; clump < 16; clump++ {
		retire := base + 4000 // whole clump retires together
		for i := int64(0); i < 64; i++ {
			issue := base + i*20 + rng.Int63n(10)
			d.Add(issue, retire)
		}
		base += 1300
	}
	a, ok := d.Slope()
	if !ok {
		t.Fatal("no slope")
	}
	if a < 0.9 || a > 1.1 {
		t.Fatalf("grouped slope on clumped stationary data = %v, want ~1", a)
	}
	if !d.Stable() {
		t.Fatal("clumped stationary series rejected")
	}
}

// TestClumpedTrendStillDetected: clumped retirement with growing durations
// must NOT look stable.
func TestClumpedTrendStillDetected(t *testing.T) {
	d := New(256, 0.03)
	base, dur := int64(0), int64(4000)
	for clump := 0; clump < 8; clump++ {
		retire := base + dur
		for i := int64(0); i < 128; i++ {
			d.Add(base+i*20, retire)
		}
		base += 2600
		dur += dur / 4
	}
	if d.Stable() {
		a, _ := d.Slope()
		t.Fatalf("growing clumped durations declared stable (slope=%v)", a)
	}
}

func TestGlobalMeanExcludesWarmup(t *testing.T) {
	d := New(4, 0.03)
	// Warm-up window: durations 100; then durations 10.
	feedLinear(d, 4, 0, 10, 100)
	feedLinear(d, 12, 40, 10, 10)
	got := d.GlobalMeanDuration()
	if got != 10 {
		t.Fatalf("GlobalMeanDuration = %v, want 10 (warm-up excluded)", got)
	}
	// With fewer than 2n samples it falls back to the all-samples mean.
	d2 := New(8, 0.03)
	feedLinear(d2, 4, 0, 10, 100)
	if d2.GlobalMeanDuration() != 100 {
		t.Fatalf("short-history mean = %v", d2.GlobalMeanDuration())
	}
	if New(4, 0.03).GlobalMeanDuration() != 0 {
		t.Fatal("empty mean not zero")
	}
}
