package emu

import (
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// benchLoopProgram is the in-package micro's kernel: init, a 32-trip
// scalar-and-vector ALU loop body, exit.
func benchLoopProgram() *isa.Program {
	b := isa.NewBuilder("bench-loop")
	b.I(isa.OpSMov, isa.S(4), isa.Imm(0))
	b.Label("top")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVMul, isa.V(2), isa.V(1), isa.V(1))
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(4), isa.Imm(32))
	b.Br(isa.OpCBranchSCC1, "top")
	b.End()
	return b.MustBuild()
}

func benchLoopLaunch(b *testing.B, groups, wpg int) *kernel.Launch {
	b.Helper()
	l := &kernel.Launch{
		Name: "bench-loop", Program: benchLoopProgram(), Memory: mem.NewFlat(),
		NumWorkgroups: groups, WarpsPerGroup: wpg,
	}
	if err := l.Validate(); err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkGroupFunctional(b *testing.B) {
	l := benchLoopLaunch(b, 1, 4)
	var grp Group
	grp.Reset(l, 0)
	if err := grp.RunFunctional(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grp.Reset(l, 0)
		if err := grp.RunFunctional(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarpStep measures detailed mode's emulator cost: one warp driven
// to s_endpgm through Step, as timing.Machine.issue drives it — one call per
// private run — in ns per instruction executed. The ALU loop's body is one
// five-micro-op run; vecadd is the streaming shape, runs of one to five
// between its loads, s_waitcnt and store.
func BenchmarkWarpStep(b *testing.B) {
	vecadd := &kernel.Launch{Name: "vecadd", Program: vecAddProgram(), Memory: mem.NewFlat(),
		NumWorkgroups: 1, WarpsPerGroup: 1, Args: []uint32{1 << 16, 2 << 16, 3 << 16, 64}}
	for _, l := range []*kernel.Launch{benchLoopLaunch(b, 1, 1), vecadd} {
		b.Run(l.Name, func(b *testing.B) {
			w := NewWarp(l, 0, nil)
			var info StepInfo
			var insts uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset(l, 0, nil)
				for !w.Done() {
					w.Step(&info)
				}
				insts += w.InstCount()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
