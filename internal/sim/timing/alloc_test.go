package timing

import (
	"testing"

	"photon/internal/testutil"
)

// TestMachineRunZeroAllocSteadyState pins the free-list pooling: after a
// warm-up kernel has populated the pools (warp contexts, groups, LDS, event
// storage, ready queues), re-running a launch on the same machine touches
// the allocator zero times per run.
func TestMachineRunZeroAllocSteadyState(t *testing.T) {
	l, _ := scaleLaunch(8)
	m := NewMachine(DefaultCompute(2), testHier(2), nil)
	for i := 0; i < 2; i++ {
		if _, err := m.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	testutil.MustZeroAllocs(t, "timing.Machine.Run (pooled steady state)", func() {
		if _, err := m.Run(l); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMachineRunPooledMatchesFresh checks that recycled runtime objects are
// reset completely: a reused machine computes the same timing as a fresh one.
func TestMachineRunPooledMatchesFresh(t *testing.T) {
	l, _ := scaleLaunch(8)
	reused := NewMachine(DefaultCompute(2), testHier(2), nil)
	var prev, warm Result
	for i := 0; i < 3; i++ {
		r, err := reused.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		prev, warm = warm, r
	}
	fresh, err := NewMachine(DefaultCompute(2), testHier(2), nil).Run(l)
	if err != nil {
		t.Fatal(err)
	}
	// The reused machine's clock, instruction and warp tallies accumulate
	// across runs and its caches stay warm, so compare this run's deltas.
	if warm.InstCount-prev.InstCount != fresh.InstCount ||
		warm.WarpsSimulated-prev.WarpsSimulated != fresh.WarpsSimulated ||
		!warm.Complete || warm.NextWG != fresh.NextWG {
		t.Fatalf("pooled run diverged: reused %+v (prev %+v), fresh %+v", warm, prev, fresh)
	}
}
