package emu

import (
	"strings"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/testutil"
)

// TestSnapshotIntoZeroAlloc pins the verify auditor's capture path: once a
// WarpState has been sized for a warp, re-snapshotting into it must not
// allocate (Snapshot allocated three slices per retired warp).
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 2*64, 2)
	w := newWarp(l, 0, nil)
	for !w.Done() {
		w.Step()
	}
	var st WarpState
	w.SnapshotInto(&st) // size the buffers
	testutil.MustZeroAllocs(t, "emu.Warp.SnapshotInto", func() {
		w.SnapshotInto(&st)
	})
	if d := st.Diff(ptr(w.Snapshot())); d != "" {
		t.Fatalf("SnapshotInto disagrees with Snapshot:\n%s", d)
	}
}

func ptr[T any](v T) *T { return &v }

// TestWarpStoreSlotRecycling checks that a slot released after warp
// retirement comes back through Alloc with pristine dispatch state: the new
// occupant must be indistinguishable from a warp bound to a never-used slot.
func TestWarpStoreSlotRecycling(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 3*64, 3)
	var s WarpStore
	s.Configure(l, 2)
	if len(s.pc) != 2 || len(s.free) != 2 {
		t.Fatalf("fresh store: %d slots, %d free; want 2, 2", len(s.pc), len(s.free))
	}

	slot := s.Alloc()
	w := s.Bind(slot, 0, nil)
	for !w.Done() {
		w.Step()
	}
	s.Release(slot)
	if len(s.free) != 2 {
		t.Fatalf("after release: %d free slots, want 2", len(s.free))
	}

	// LIFO reuse: the recycled slot is handed out first and must carry no
	// trace of its previous occupant.
	got := s.Alloc()
	if got != slot {
		t.Fatalf("Alloc after Release = slot %d, want recycled slot %d", got, slot)
	}
	w2 := s.Bind(got, 1, nil)
	if w2.PC() != 0 || w2.Done() || w2.AtBarrier() || w2.InstCount() != 0 {
		t.Fatalf("recycled slot not reset: pc=%d done=%v barrier=%v insts=%d",
			w2.PC(), w2.Done(), w2.AtBarrier(), w2.InstCount())
	}
	for i, c := range w2.BBCounts() {
		if c != 0 {
			t.Fatalf("recycled slot BBCounts[%d] = %d, want 0", i, c)
		}
	}
	if w2.SReg(0) != 1 || w2.SReg(1) != 0 || w2.SReg(2) != 1 || w2.SReg(3) != 1 {
		t.Fatalf("dispatch conventions wrong on recycled slot: s0..s3 = %d %d %d %d",
			w2.SReg(0), w2.SReg(1), w2.SReg(2), w2.SReg(3))
	}
	for !w2.Done() {
		w2.Step()
	}
	ref := newWarp(l, 1, nil)
	for !ref.Done() {
		ref.Step()
	}
	if d := ptr(w2.Snapshot()).Diff(ptr(ref.Snapshot())); d != "" {
		t.Fatalf("recycled-slot warp diverged from fresh warp:\n%s", d)
	}
}

// TestWarpStoreExhaustedPanics pins the sizing contract: a store never
// grows, so an Alloc past the slot count Configure sized it to means its
// owner's bound is broken, and it panics naming that bound. A released slot
// makes Alloc succeed again.
func TestWarpStoreExhaustedPanics(t *testing.T) {
	l, _, _, _ := vecAddLaunch(t, 3*64, 3)
	var s WarpStore
	s.Configure(l, 2)
	s.Alloc()
	last := s.Alloc()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "vecadd: warp store exhausted: all 2 slots bound") {
				t.Fatalf("Alloc on a full 2-slot store: panic %q, want one naming the 2-slot bound", msg)
			}
		}()
		s.Alloc()
	}()
	s.Release(last)
	if got := s.Alloc(); got != last {
		t.Fatalf("Alloc after Release = slot %d, want %d", got, last)
	}
}

// TestRunKernelFunctionalAscendingOrder makes workgroup order observable:
// every lane takes a ticket from one global counter with a value-returning
// atomic add and stores it at its thread index. Only strictly ascending
// workgroup (and lane) order hands thread i ticket i.
func TestRunKernelFunctionalAscendingOrder(t *testing.T) {
	const groups, wpg = 5, 2
	b := isa.NewBuilder("ticket")
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6)) // s4 = global warp * 64
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))    // v1 = thread index
	b.I(isa.OpVMov, isa.V(2), isa.S(8))              // v2 = &counter
	b.I(isa.OpVAtomicAdd, isa.V(3), isa.V(2), isa.Imm(1))
	b.I(isa.OpVLShl, isa.V(4), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.S(9))
	b.Store(isa.OpVStore, isa.V(4), isa.V(3), 0)
	b.End()

	const threads = groups * wpg * kernel.WavefrontSize
	m := mem.NewFlat()
	counter := m.Alloc(4)
	out := m.Alloc(4 * threads)
	l := &kernel.Launch{
		Name: "ticket", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: groups, WarpsPerGroup: wpg,
		Args: []uint32{uint32(counter), uint32(out)},
	}
	insts, err := RunKernelFunctional(l)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(groups * wpg * len(l.Program.Insts)); insts != want {
		t.Fatalf("instruction total = %d, want %d", insts, want)
	}
	for i := 0; i < threads; i++ {
		if got := m.Read32(out + uint64(4*i)); got != uint32(i) {
			t.Fatalf("thread %d drew ticket %d: workgroups did not run in ascending order", i, got)
		}
	}
}
