package detect

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestRingWraparoundAtExactlyTwoWindows pins the ring indexing at the moment
// the window first becomes full and on the sample after it, when the
// (2n+1)-entry prefix ring wraps: the newest n samples must stay the recent
// half and the n before them the previous half.
func TestRingWraparoundAtExactlyTwoWindows(t *testing.T) {
	d := New(4, 0.03)
	feedLinear(d, 4, 0, 10, 10)  // previous half: duration 10
	feedLinear(d, 4, 40, 10, 30) // recent half: duration 30
	if recent, prev := d.halfMeans(); recent != 30 || prev != 10 {
		t.Fatalf("half means at exactly 2n samples = %v, %v; want 30, 10", recent, prev)
	}
	if got := d.MeanDuration(); got != 30 {
		t.Fatalf("MeanDuration over the recent half = %v, want 30", got)
	}
	if d.Stable() {
		t.Fatal("plateau shift at the wraparound boundary declared stable")
	}

	// One more sample slides both halves by one: prev = samples 2..5
	// (durations 10,10,10,30 -> mean 15), recent = 6..9 (all 30).
	d.Add(80, 110)
	if recent, prev := d.halfMeans(); recent != 30 || prev != 15 {
		t.Fatalf("half means after sliding one sample = %v, %v; want 30, 15", recent, prev)
	}
	// And across several full wraps of the ring the halves keep sliding.
	feedLinear(d, 27, 90, 10, 50)
	d.Add(360, 370)
	if recent, prev := d.halfMeans(); recent != 40 || prev != 50 {
		t.Fatalf("half means after four wraps = %v, %v; want 40, 50", recent, prev)
	}
}

// TestZeroXVarianceSlopeNotNaN: identical issue times make the regression
// denominator exactly zero. The detector must report ok=false with a finite
// slope value, never NaN, and must stay unstable — and a later well-spread
// window must recover.
func TestZeroXVarianceSlopeNotNaN(t *testing.T) {
	d := New(8, 0.03)
	for i := 0; i < 16; i++ {
		d.Add(500, 600)
	}
	a, ok := d.Slope()
	if ok {
		t.Fatal("slope reported ok on zero x-variance")
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("degenerate slope = %v, want finite", a)
	}
	if d.Stable() {
		t.Fatal("zero-x-variance series declared stable")
	}
	// Spread samples wash the degenerate ones out of the window.
	feedLinear(d, 16, 1000, 10, 100)
	if a, ok := d.Slope(); !ok || a < 0.99 || a > 1.01 {
		t.Fatalf("slope after recovery = %v ok=%v, want ~1", a, ok)
	}
}

// TestQueriesIdempotentAtSameCount: polling twice at one sample count must
// return identical values — a query reads the sums and changes nothing (the
// controller polls every block type's detector between Adds).
func TestQueriesIdempotentAtSameCount(t *testing.T) {
	d := New(16, 0.03)
	feedLinear(d, 32, 0, 10, 42)
	a1, ok1 := d.Slope()
	m1 := d.MeanDuration()
	s1 := d.Stable()
	a2, ok2 := d.Slope()
	m2 := d.MeanDuration()
	s2 := d.Stable()
	if a1 != a2 || ok1 != ok2 || m1 != m2 || s1 != s2 {
		t.Fatalf("second poll at the same count changed answers: (%v %v %v %v) vs (%v %v %v %v)",
			a1, ok1, m1, s1, a2, ok2, m2, s2)
	}
}

// FuzzDetector feeds arbitrary sample streams and asserts, on every step,
// that the detector answers exactly as the windowed reference does (==, see
// reference_test.go) and the robustness properties: no NaN/Inf ever escapes,
// and the query methods are idempotent at a fixed sample count. The committed
// corpus runs in plain `go test`.
func FuzzDetector(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(16), []byte{0xff, 0x00, 0x80, 0x7f, 0x10, 0x20, 0x30, 0x40,
		0x50, 0x60, 0x70, 0x80, 0x90, 0xa0, 0xb0, 0xc0})
	f.Fuzz(func(t *testing.T, win uint8, data []byte) {
		n := int(win)%64 + 2
		p := newPair(t, n)
		d := p.d
		x := int64(0)
		for len(data) >= 4 {
			step := int64(binary.LittleEndian.Uint16(data))
			dur := int64(binary.LittleEndian.Uint16(data[2:]))
			data = data[4:]
			x += step
			p.add(x, x+dur)

			a, ok := d.Slope()
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Fatalf("slope = %v (ok=%v) at count %d", a, ok, d.Count())
			}
			for _, m := range []float64{d.MeanDuration(), d.GlobalMeanDuration()} {
				if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
					t.Fatalf("mean = %v at count %d", m, d.Count())
				}
			}
			a2, ok2 := d.Slope()
			if a != a2 || ok != ok2 || d.Stable() != d.Stable() {
				t.Fatalf("queries not idempotent at count %d", d.Count())
			}
		}
	})
}
