// Package verify is the simulator's differential-testing subsystem. It
// generates seeded random programs over the warp-level ISA, runs each one
// through the functional emulator and the detailed timing model, and demands
// that the two agree on every architecturally visible outcome: final
// register state, execution masks, memory contents, and the conserved
// counters (instructions issued == instructions retired per warp, cache
// accesses == hits + misses, L2 traffic == L1 misses + writebacks, and so
// on). It also checks the event-engine metamorphic property — the production
// Engine and the reference RefEngine must produce bit-identical schedules.
// The CLIs' -check is not here: the harness run loop applies the conservation
// check itself after every kernel (harness.AppObs.Check).
//
// Generated programs are constructed to be schedule-independent: warps write
// only their own output segment, the shared segment is touched only through
// one commutative atomic op per program, and LDS follows a write-own/
// read-any phase discipline separated by barriers. Under those rules any
// divergence between the engines is a simulator bug, not a program race.
package verify

import (
	"photon/internal/sim/gpu"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

// Violation is one invariant breach found while checking a case. Kind is a
// short category ("diff", "conservation", "engine", ...) and Detail the
// human-readable evidence.
type Violation struct {
	Kind   string
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// SmallConfig returns the GPU configuration the differential checks run on:
// 4 CUs with the shared compute timing and deliberately tiny caches, so even
// short programs generate misses, evictions, writebacks and DRAM traffic —
// the paths the conservation invariants exercise.
func SmallConfig() (timing.Config, mem.HierarchyConfig) {
	compute := timing.DefaultCompute(4)
	hier := mem.HierarchyConfig{
		NumCUs:            4,
		CUsPerScalarBlock: 4,
		L1V:               mem.CacheConfig{Name: "L1V", SizeBytes: 4 << 10, Ways: 2, HitLatency: 28, ThroughputCycles: 1},
		L1I:               mem.CacheConfig{Name: "L1I", SizeBytes: 8 << 10, Ways: 2, HitLatency: 20, ThroughputCycles: 1},
		L1K:               mem.CacheConfig{Name: "L1K", SizeBytes: 4 << 10, Ways: 2, HitLatency: 24, ThroughputCycles: 1},
		L2:                mem.CacheConfig{Name: "L2", SizeBytes: 32 << 10, Ways: 4, HitLatency: 80, ThroughputCycles: 2},
		L2Banks:           2,
		DRAM: mem.DRAMConfig{
			Name: "DRAM", Banks: 4, Latency: 250, BurstCycles: 8,
		},
	}
	return compute, hier
}

// SmallGPU wraps SmallConfig into a complete device configuration, for tests
// and metamorphic checks that go through the gpu.Runner layer.
func SmallGPU() gpu.Config {
	compute, hier := SmallConfig()
	return gpu.Config{Name: "verify-small", ClockGHz: 1.0, Compute: compute, Memory: hier}
}
