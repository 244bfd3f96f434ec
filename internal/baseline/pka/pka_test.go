package pka

import (
	"testing"

	"photon/internal/sim/gpu"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/stats"
	"photon/internal/workloads"
)

func smallGPU() gpu.Config {
	const kib = 1024
	return gpu.Config{
		Name:     "test-4cu",
		ClockGHz: 1.0,
		Compute:  timing.DefaultCompute(4),
		Memory: mem.HierarchyConfig{
			NumCUs:            4,
			CUsPerScalarBlock: 4,
			L1V:               mem.CacheConfig{Name: "l1v", SizeBytes: 16 * kib, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
			L1I:               mem.CacheConfig{Name: "l1i", SizeBytes: 32 * kib, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
			L1K:               mem.CacheConfig{Name: "l1k", SizeBytes: 16 * kib, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
			L2:                mem.CacheConfig{Name: "l2", SizeBytes: 256 * kib, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
			L2Banks:           8,
			DRAM:              mem.DRAMConfig{Name: "dram", Banks: 16, Latency: 250, BurstCycles: 8},
		},
		DRAMBytes: 4 << 30,
	}
}

func TestPKASamplesStableWorkload(t *testing.T) {
	app, err := workloads.BuildReLU(8192)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	r, err := gpu.RunKernel(New(DefaultParams()), g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != TierSampled || !r.Stale {
		t.Fatalf("mode = %s (stale=%v), want a stale %s (IPC of ReLU should stabilize)", r.Mode, r.Stale, TierSampled)
	}
	app2, _ := workloads.BuildReLU(8192)
	full, err := gpu.RunKernel(gpu.FullRunner{}, gpu.New(smallGPU()), app2.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	errPct := stats.AbsErrorPct(float64(full.SimTime), float64(r.SimTime))
	if errPct > 60 {
		t.Fatalf("PKA error on ReLU %.1f%% (full=%d pred=%d)", errPct, full.SimTime, r.SimTime)
	}
	if r.DetailedInsts >= full.Insts {
		t.Fatal("PKA did not skip any detailed work")
	}
}

func TestPKAKernelLevelReuse(t *testing.T) {
	app, err := workloads.BuildPageRank(128 * 64)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	runner := New(DefaultParams())
	var modes []string
	reused := 0
	for _, l := range app.Launches {
		r, err := gpu.RunKernel(runner, g, l)
		if err != nil {
			t.Fatal(err)
		}
		modes = append(modes, r.Mode)
		if r.Mode == TierKernel {
			if !r.Stale {
				t.Fatalf("%s result not stale: a reused kernel executes no workgroup", TierKernel)
			}
			reused++
		}
	}
	// 16 launches of 2 alternating kernels: at least the repeats after the
	// first pair should hit PKA's kernel-level cache.
	if reused < 12 {
		t.Fatalf("PKA kernel-level reuse only %d/%d (modes=%v)", reused, len(modes), modes)
	}
}

func TestPKAFallsBackToFullWhenUnstable(t *testing.T) {
	// A tiny kernel ends before MinCycles of detailed simulation, so the
	// monitor can never declare stability.
	app, err := workloads.BuildReLU(8)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	r, err := gpu.RunKernel(New(DefaultParams()), g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != TierFull || r.Stale {
		t.Fatalf("mode = %s (stale=%v), want an image-exact %s", r.Mode, r.Stale, TierFull)
	}
}

func TestBucketsAreMonotone(t *testing.T) {
	if bucket(100) >= bucket(400) {
		t.Fatal("bucket not monotone")
	}
	if bucket(100) != bucket(101) {
		t.Fatal("bucket too fine: near-equal counts should share a bucket")
	}
	if bucket(0) != 0 {
		t.Fatal("bucket(0) != 0")
	}
}

func TestRunnerString(t *testing.T) {
	r := New(DefaultParams())
	if r.Name() != "pka" || r.String() == "" {
		t.Fatal("identity methods broken")
	}
}
