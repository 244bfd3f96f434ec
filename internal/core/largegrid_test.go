package core

import (
	"os"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// largeGridProgram is a pure-ALU loop kernel (no memory traffic) so the
// large-grid smoke test measures the sampled-mode fast-forward machinery,
// not the memory system.
func largeGridProgram() *isa.Program {
	b := isa.NewBuilder("large-grid-loop")
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

// TestLargeGridSampledMode pushes >100k warps through the kernel-sampling
// fast-forward: the batched replayer must functionally execute the whole
// grid through the slab store without blowing up memory or time. The run
// takes a few seconds, so it is gated behind PHOTON_LARGE_GRID=1 and runs
// in CI's bench job.
func TestLargeGridSampledMode(t *testing.T) {
	if os.Getenv("PHOTON_LARGE_GRID") != "1" {
		t.Skip("set PHOTON_LARGE_GRID=1 to run the large-grid smoke test")
	}
	const groups, wpg = 25600, 4 // 102400 warps
	l := &kernel.Launch{
		Name: "large-grid", Program: largeGridProgram(), Memory: mem.NewFlat(),
		NumWorkgroups: groups, WarpsPerGroup: wpg,
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	warps := l.TotalWarps()
	if warps < 100_000 {
		t.Fatalf("grid too small for a large-grid test: %d warps", warps)
	}

	// Every warp runs the same straight 32-trip loop; one reference warp
	// gives the exact per-warp instruction count.
	var ref emu.Group
	ref.Reset(l, 0)
	if err := ref.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	perWarp := ref.Warps[0].InstCount()

	ph := MustNew(smallGPU(), testParams(), Levels{Kernel: true})
	prof, err := AnalyzeOnline(l, ph.params.SampleFraction)
	if err != nil {
		t.Fatal(err)
	}
	// Seed history with a matching prior kernel so RunKernel takes the
	// functional fast-forward branch instead of detailed simulation.
	ph.History().Add(KernelRecord{
		Name:    "large-grid-prior",
		GPU:     prof.GPU,
		Warps:   warps,
		Insts:   float64(warps) * prof.MeanWarpInsts,
		SimTime: float64(warps) * prof.MeanWarpInsts / 2, // IPC 2
	})

	res, err := ph.RunKernel(gpu.New(smallGPU()), l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != TierKernel {
		t.Fatalf("mode = %q, want kernel-sampling (history did not match)", res.Mode)
	}
	if want := perWarp * uint64(warps); res.Insts != want {
		t.Fatalf("fast-forward executed %d instructions, want %d (%d warps x %d)",
			res.Insts, want, warps, perWarp)
	}
	if res.SimTime == 0 {
		t.Fatal("predicted SimTime is zero")
	}
}
