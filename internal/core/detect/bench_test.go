package detect

import (
	"testing"

	"photon/internal/testutil"
)

// BenchmarkDetectorPoll is the controller's access pattern at the paper's
// basic-block window: one Add per retirement and a Stable poll every 64
// (core.Params.CheckInterval).
func BenchmarkDetectorPoll(b *testing.B) {
	d := New(2048, 0.03)
	stable := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := int64(i) * 10
		d.Add(x, x+500)
		if i%64 == 63 && d.Stable() {
			stable++
		}
	}
	if b.N > 2*2048+64 && stable == 0 {
		b.Fatal("stationary series never judged stable")
	}
}

// TestAddAndStableDoNotAlloc pins the detector's steady state: the ring is
// allocated by New and neither a sample nor a poll touches the heap.
func TestAddAndStableDoNotAlloc(t *testing.T) {
	d := New(4, 0.03) // full after 8 of the helper's runs (it makes 10 under race)
	x := int64(0)
	testutil.MustZeroAllocs(t, "Detector.Add+Stable", func() {
		x += 10
		d.Add(x, x+500)
		d.Stable()
	})
	if !d.Stable() {
		t.Fatal("pinned runs never reached the full-window path")
	}
}
