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
	w := newWarp(l, globalID, make([]byte, l.Program.LDSBytes))
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
		timed.Steps = kernel.StepAddresses
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

// A dependent program never runs timing-only: RunKernelFunctional refuses
// a StepAddresses launch of it before any warp steps, and the same launch
// on StepValues moves every value. Its second load's address is the
// first load's value.
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
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{uint32(idx)}, Steps: kernel.StepAddresses}
	if l.Program.Independent() {
		t.Fatal("a load that feeds an address is independent")
	}
	if _, err := RunKernelFunctional(l); err == nil {
		t.Fatal("timing-only run of a dependent program accepted")
	}
	if got := m.Read32(out); got != 0 {
		t.Fatalf("a refused launch wrote out = %d", got)
	}
	l.Steps = kernel.StepValues
	if _, err := RunKernelFunctional(l); err != nil {
		t.Fatal(err)
	}
	if got := m.Read32(out); got != 63 { // the last lane's store wins
		t.Errorf("out = %d, want 63", got)
	}
}

// scaleLaunch is an independent launch of two workgroups of two warps over
// n words: each lane loads its word, multiplies it by a scale factor that
// an s_load reads, passes it through LDS across a barrier and stores it.
// The scale, the loaded word and the LDS round trip reach only the stored
// data, so the s_load, the v_load and both LDS ops are what a timing-only
// run must not read.
func scaleLaunch(t *testing.T) *kernel.Launch {
	t.Helper()
	const n = 4 * 64
	m := mem.NewFlat()
	scale, in, out := m.Alloc(4), m.Alloc(4*n), m.Alloc(4*n)
	m.Write32(scale, 3)
	for i := range n {
		m.Write32(in+uint64(4*i), uint32(i))
	}
	b := isa.NewBuilder("scale")
	b.SetLDS(2 * 64 * 4)
	b.Load(isa.OpSLoad, isa.S(4), isa.S(8), 0)
	b.I(isa.OpSLShl, isa.S(5), isa.S(2), isa.Imm(8)) // s5 = global warp * 256 bytes
	b.I(isa.OpVLShl, isa.V(1), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.S(5))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
	b.Waitcnt(0)
	b.I(isa.OpVMul, isa.V(3), isa.V(3), isa.S(4))
	b.I(isa.OpSLShl, isa.S(6), isa.S(1), isa.Imm(8)) // s6 = warp in group * 256 bytes
	b.I(isa.OpVLShl, isa.V(4), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.S(6))
	b.Store(isa.OpLDSStore, isa.V(4), isa.V(3), 0)
	b.Barrier()
	b.Load(isa.OpLDSLoad, isa.V(5), isa.V(4), 0)
	b.I(isa.OpVAdd, isa.V(6), isa.V(1), isa.S(10))
	b.Store(isa.OpVStore, isa.V(6), isa.V(5), 0)
	b.End()
	l := &kernel.Launch{Name: "scale", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: 2, WarpsPerGroup: 2, Args: []uint32{uint32(scale), uint32(in), uint32(out)}}
	if !l.Program.Independent() {
		t.Fatalf("scale is not independent:\n%s", l.Program.Disassemble())
	}
	return l
}

// A timing-only launch of an independent program needs no image: with a
// nil Memory, stepping each warp and running each workgroup's segments
// through the functional group loop follow the value run's PCs, EXEC,
// s_waitcnt counts and addresses, and end with its instruction and BB
// counts. A read of the s_load's, the v_load's or an LDS op's data, or a
// store, would dereference the missing image.
func TestTimingOnlyRunsWithNoImage(t *testing.T) {
	value := scaleLaunch(t)
	timed := *value
	timed.Memory, timed.Steps = nil, kernel.StepAddresses
	if err := timed.Validate(); err != nil {
		t.Fatal(err)
	}
	for warp := range value.TotalWarps() {
		want, _ := traceWarp(value, warp)
		got, _ := traceWarp(&timed, warp)
		if !slices.Equal(got.pcs, want.pcs) || !slices.EqualFunc(got.addrs, want.addrs, slices.Equal) ||
			!slices.Equal(got.exec, want.exec) || !slices.Equal(got.outMem, want.outMem) ||
			got.insts != want.insts || !slices.Equal(got.bb, want.bb) {
			t.Fatalf("warp %d: timing-only steps differ:\n got %+v\nwant %+v", warp, got, want)
		}
	}
	var vg, tg Group
	for wg := range value.NumWorkgroups {
		vg.Reset(value, wg)
		tg.Reset(&timed, wg)
		if err := vg.RunFunctional(); err != nil {
			t.Fatal(err)
		}
		if err := tg.RunFunctional(); err != nil {
			t.Fatal(err)
		}
		for i, w := range tg.Warps {
			v := vg.Warps[i]
			if w.InstCount() != v.InstCount() || !slices.Equal(w.BBCounts(), v.BBCounts()) || w.PC() != v.PC() {
				t.Errorf("workgroup %d warp %d: timing-only segments ran %d instructions, BBV %v to PC %d; the value run %d, %v to %d",
					wg, i, w.InstCount(), w.BBCounts(), w.PC(), v.InstCount(), v.BBCounts(), v.PC())
			}
		}
	}
	if got := value.Memory.Read32(uint64(value.Args[2]) + 4*5); got != 15 {
		t.Errorf("the value run stored %d for word 5, want 15", got)
	}
}
