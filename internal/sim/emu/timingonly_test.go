package emu

import (
	"slices"
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// stepTrace is what the timing model reads of one warp stepped to
// s_endpgm: the PC and returned addresses of every Step, and the final
// counters.
type stepTrace struct {
	pcs    []int
	addrs  [][]uint64
	exec   []uint64
	outMem []int32
	insts  uint64
	bb     []uint32
}

func traceWarp(l *kernel.Launch, globalID int) (stepTrace, *Warp) {
	w := newWarp(l, globalID, nil)
	var tr stepTrace
	for !w.Done() {
		tr.pcs = append(tr.pcs, w.PC())
		tr.addrs = append(tr.addrs, slices.Clone(w.Step()))
		tr.exec = append(tr.exec, w.Exec())
		tr.outMem = append(tr.outMem, w.store.outMem[w.slot])
	}
	tr.insts, tr.bb = w.InstCount(), slices.Clone(w.BBCounts())
	return tr, w
}

// A timing-only Step of an independent program steps through the same PCs
// with the same EXEC and s_waitcnt count, returns the same addresses and
// ends with the same counts as a value Step, under full and partial EXEC,
// while it skips the dead fadd and writes no memory.
func TestTimingOnlyStepMatchesValueStep(t *testing.T) {
	const n = 100 // warp 1 runs 36 lanes
	if !vecAddProgram().Independent() {
		t.Fatal("vecadd is not independent")
	}
	for warp := 0; warp < 2; warp++ {
		value, _, _, out := vecAddLaunch(t, n, 2)
		timed, _, _, _ := vecAddLaunch(t, n, 2)
		timed.TimingOnly = true
		want, vw := traceWarp(value, warp)
		got, tw := traceWarp(timed, warp)
		if !slices.Equal(got.pcs, want.pcs) || !slices.EqualFunc(got.addrs, want.addrs, slices.Equal) ||
			!slices.Equal(got.exec, want.exec) || !slices.Equal(got.outMem, want.outMem) ||
			got.insts != want.insts || !slices.Equal(got.bb, want.bb) {
			t.Fatalf("warp %d: timing-only steps differ:\n got %+v\nwant %+v", warp, got, want)
		}
		if vw.VReg(7, 1) == 0 || tw.VReg(7, 1) != 0 {
			t.Errorf("warp %d: v7 (the stored sum) = %#x in the value run and %#x timing-only, want it skipped",
				warp, vw.VReg(7, 1), tw.VReg(7, 1))
		}
		if v := timed.Memory.ReadF32(out + 4*uint64(64*warp+1)); v != 0 {
			t.Errorf("warp %d: timing-only run stored %v", warp, v)
		}
	}
}

// A dependent program ignores TimingOnly: every Step moves its values. Its
// second load's address is the first load's value.
func TestTimingOnlyIgnoredForDependentProgram(t *testing.T) {
	m := mem.NewFlat()
	idx, out := m.Alloc(4), m.Alloc(4)
	m.Write32(idx, uint32(out))
	b := isa.NewBuilder("chase")
	b.I(isa.OpVMov, isa.V(1), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(2), isa.V(1), 0)
	b.Waitcnt(0)
	b.Store(isa.OpVStore, isa.V(2), isa.V(0), 0)
	b.End()
	l := &kernel.Launch{Name: "chase", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{uint32(idx)}, TimingOnly: true}
	if l.Program.Independent() {
		t.Fatal("a load that feeds an address is independent")
	}
	w := newWarp(l, 0, nil)
	for !w.Done() {
		w.Step()
	}
	if got := m.Read32(out); got != 63 { // the last lane's store wins
		t.Errorf("out = %d, want 63", got)
	}
}
