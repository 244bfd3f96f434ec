package bench

import (
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// TestEmuBenchInstructionCounts pins the numerator of the two emulator
// throughput figures. testing.Benchmark calls a benchmark function once per
// ramp round, so a counter that accumulated across calls would report a
// multiple of the real per-op work (the 4x inflation emu_group_functional
// once carried).
func TestEmuBenchInstructionCounts(t *testing.T) {
	l := &kernel.Launch{
		Name: "bench-loop", Program: loopProgram(), Memory: mem.NewFlat(),
		NumWorkgroups: 1, WarpsPerGroup: 4,
	}
	grp := emu.NewGroup(l, 0)
	if err := grp.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, w := range grp.Warps {
		want += w.InstCount()
	}

	var step, replay uint64
	if r := testing.Benchmark(emuStepBench(&step)); r.N < 2 {
		t.Fatalf("benchmark ran %d iterations; the ramp did not happen", r.N)
	}
	testing.Benchmark(emuReplayBench(&replay))
	if step != want {
		t.Errorf("emu_group_functional counts %d instructions per op, one workgroup executes %d", step, want)
	}
	if replay != 64*want {
		t.Errorf("emu_batch_replay counts %d instructions per op, its 64 workgroups execute %d", replay, 64*want)
	}
}
