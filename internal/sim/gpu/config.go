// Package gpu assembles the full GPU model: compute-unit timing plus the
// memory hierarchy, with the two configurations of the paper's Table 1
// (AMD R9 Nano and MI100), and the runner abstraction that the sampling
// methodologies implement.
package gpu

import (
	"photon/internal/sim/event"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

// Config is a whole-GPU configuration.
type Config struct {
	Name      string
	ClockGHz  float64
	Compute   timing.Config
	Memory    mem.HierarchyConfig
	DRAMBytes uint64
}

func cache(name string, size, ways, hitLat, throughput int) mem.CacheConfig {
	return mem.CacheConfig{
		Name: name, SizeBytes: size, Ways: ways,
		HitLatency: event.Time(hitLat), ThroughputCycles: event.Time(throughput),
	}
}

// R9Nano returns the paper's R9 Nano configuration (Table 1): 64 CUs at
// 1 GHz, 16 KB 4-way L1V per CU, 32 KB 4-way L1I and 16 KB 4-way L1 scalar
// per 4 CUs, 8 × 256 KB 16-way L2 banks, 4 GB DRAM.
func R9Nano() Config {
	const kib = 1024
	return Config{
		Name:     "R9 Nano",
		ClockGHz: 1.0,
		Compute:  timing.DefaultCompute(64),
		Memory: mem.HierarchyConfig{
			NumCUs:            64,
			CUsPerScalarBlock: 4,
			L1V:               cache("L1V", 16*kib, 4, 28, 1),
			L1I:               cache("L1I", 32*kib, 4, 20, 1),
			L1K:               cache("L1K", 16*kib, 4, 24, 1),
			L2:                cache("L2", 256*kib, 16, 80, 2),
			L2Banks:           8,
			DRAM: mem.DRAMConfig{
				Name: "HBM", Banks: 32, Latency: 250, BurstCycles: 8,
			},
		},
		DRAMBytes: 4 << 30,
	}
}

// MI100 returns the paper's MI100 configuration (Table 1): 120 CUs at
// 1 GHz, 16 KB 4-way L1V per CU, 32 KB 4-way L1I and 16 KB 4-way L1 scalar
// per 4 CUs, an 8 MB 16-way L2 in 32 banks, 32 GB DRAM.
func MI100() Config {
	const kib = 1024
	return Config{
		Name:     "MI100",
		ClockGHz: 1.0,
		Compute:  timing.DefaultCompute(120),
		Memory: mem.HierarchyConfig{
			NumCUs:            120,
			CUsPerScalarBlock: 4,
			L1V:               cache("L1V", 16*kib, 4, 28, 1),
			L1I:               cache("L1I", 32*kib, 4, 20, 1),
			L1K:               cache("L1K", 16*kib, 4, 24, 1),
			L2:                cache("L2", 256*kib, 16, 80, 2), // 32 banks x 256 KB = 8 MB
			L2Banks:           32,
			DRAM: mem.DRAMConfig{
				Name: "HBM2", Banks: 64, Latency: 230, BurstCycles: 8,
			},
		},
		DRAMBytes: 32 << 30,
	}
}

// Configs returns the named configuration ("r9nano" or "mi100").
func Configs(name string) (Config, bool) {
	switch name {
	case "r9nano", "R9 Nano", "r9":
		return R9Nano(), true
	case "mi100", "MI100":
		return MI100(), true
	}
	return Config{}, false
}
