package emu

import (
	"testing"

	"photon/internal/testutil"
)

// TestGroupResetZeroAlloc pins the fast-forward pooling: once a Group has
// been sized for a launch, resetting and re-running workgroups through it is
// allocation-free — the property the sampled modes' functional loops rely on.
func TestGroupResetZeroAlloc(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 4*64, 4)
	var grp Group
	grp.Reset(l, 0)
	if err := grp.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	wg := 0
	testutil.MustZeroAllocs(t, "emu.Group.Reset+RunFunctional", func() {
		grp.Reset(l, wg%l.NumWorkgroups)
		wg++
		if err := grp.RunFunctional(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGroupRunRangeZeroAlloc pins the one fast-forward loop: a sized Group
// steps workgroup ranges — reset, LDS clear, barrier segments, LDS and vector
// memory traffic, the visit callback — without allocating.
func TestGroupRunRangeZeroAlloc(t *testing.T) {
	l, _ := ldsExchangeLaunch(4)
	var grp Group
	var insts uint64
	visit := func(warps []*Warp) {
		for _, w := range warps {
			insts += w.InstCount()
		}
	}
	if err := grp.RunRange(l, 0, l.NumWorkgroups, visit); err != nil {
		t.Fatal(err)
	}
	testutil.MustZeroAllocs(t, "emu.Group.RunRange", func() {
		if err := grp.RunRange(l, 1, l.NumWorkgroups-1, visit); err != nil {
			t.Fatal(err)
		}
	})
	if insts == 0 {
		t.Fatal("fast-forward executed no instructions")
	}
}
