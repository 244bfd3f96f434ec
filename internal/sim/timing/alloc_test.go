package timing

import (
	"testing"

	"photon/internal/sim/kernel"
	"photon/internal/testutil"
)

// TestMachineRunZeroAllocSteadyState pins the free-list pooling: after a
// warm-up kernel has populated the pools (warp contexts, groups, LDS, event
// storage, ready queues), re-running a launch on the same machine touches
// the allocator zero times per run.
func TestMachineRunZeroAllocSteadyState(t *testing.T) {
	l, _ := scaleLaunch(8)
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
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

// TestMachineRunTimingOnlyZeroAllocSteadyState pins the same pooling for a
// StepAddresses launch, whose warps step timing-only.
func TestMachineRunTimingOnlyZeroAllocSteadyState(t *testing.T) {
	l, _ := scaleLaunch(8)
	l.Steps = kernel.StepAddresses
	if !l.Program.Independent() {
		t.Fatal("scale is not independent")
	}
	m := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	for i := 0; i < 2; i++ {
		if _, err := m.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	testutil.MustZeroAllocs(t, "timing.Machine.Run (timing-only, pooled steady state)", func() {
		if _, err := m.Run(l); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMachineRunPooledMatchesFresh checks that recycled runtime objects are
// reset completely: a reused machine computes the same timing as a fresh one.
func TestMachineRunPooledMatchesFresh(t *testing.T) {
	l, _ := scaleLaunch(8)
	reused := NewMachine(DefaultCompute(2), testHier(2), Observer{})
	var warm Result
	for i := 0; i < 3; i++ {
		var err error
		if warm, err = reused.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewMachine(DefaultCompute(2), testHier(2), Observer{}).Run(l)
	if err != nil {
		t.Fatal(err)
	}
	// The reused machine's clock keeps running and its caches stay warm, so
	// compare the counts, which are each run's own.
	if warm.InstCount != fresh.InstCount || warm.WarpsSimulated != fresh.WarpsSimulated ||
		warm.ClassIssued != fresh.ClassIssued || !warm.Complete || warm.NextWG != fresh.NextWG {
		t.Fatalf("pooled run diverged: reused %+v, fresh %+v", warm, fresh)
	}
}
