// Package timing implements the detailed (cycle-level) execution mode: an
// event-driven model of a GPU's compute units. Each CU hosts several SIMD
// units; each SIMD issues at most one warp instruction per cycle from the
// warps resident in its slots; vector memory flows through the cache/DRAM
// hierarchy; barriers synchronize workgroups. The model issues one
// instruction at a time and drives the functional emulator one private run
// (isa.MicroOp.Run) at a time, so it is execution-driven like MGPUSim.
package timing

import (
	"fmt"

	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// Config holds the compute-side timing parameters. Memory parameters live
// in mem.HierarchyConfig.
type Config struct {
	NumCUs           int
	SIMDsPerCU       int
	WarpSlotsPerSIMD int

	// ExecLatency is the time from issuing an instruction of a class until
	// the warp may issue its next instruction (in-order model; inter-warp
	// overlap comes from the SIMD arbitrating between warps).
	ExecLatency [isa.FUClassCount]event.Time
	// IssueOccupancy is how long an instruction of a class occupies the
	// SIMD's issue port (vector ops sweep 64 lanes over a 16-wide unit in 4
	// cycles on GCN).
	IssueOccupancy [isa.FUClassCount]event.Time

	// VectorMemIssueCycles is the warp-visible cost of issuing a vector
	// memory operation; completion is asynchronous until s_waitcnt.
	VectorMemIssueCycles event.Time
	BarrierLatency       event.Time
	// DispatchLatency is the delay between a workgroup landing on a CU and
	// its warps becoming ready; it produces the ramp-up phase visible in
	// the paper's IPC plots.
	DispatchLatency event.Time
}

// WarpSlotsPerCU returns the CU's warp capacity.
func (c Config) WarpSlotsPerCU() int { return c.SIMDsPerCU * c.WarpSlotsPerSIMD }

// ResidentWarpSlots returns how many warps of launch l can be
// architecturally resident at once under this geometry: the device-wide
// slot capacity, capped by the launch's own warp count. It is an exact
// bound — dispatch places a workgroup only on a CU with WarpsPerGroup free
// slots and a workgroup's store slots are released with its CU slots — so
// the machine sizes its structure-of-arrays WarpStore to it at launch time
// and the store never runs out; small grids pay only for the slots they can
// occupy.
func ResidentWarpSlots(c Config, l *kernel.Launch) int {
	return min(c.NumCUs*c.WarpSlotsPerCU(), l.TotalWarps())
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumCUs <= 0 || c.SIMDsPerCU <= 0 || c.WarpSlotsPerSIMD <= 0 {
		return fmt.Errorf("timing: CU geometry must be positive (%d CUs, %d SIMDs, %d slots)",
			c.NumCUs, c.SIMDsPerCU, c.WarpSlotsPerSIMD)
	}
	for cl := isa.FUClass(0); cl < isa.FUClassCount; cl++ {
		if c.IssueOccupancy[cl] <= 0 {
			return fmt.Errorf("timing: issue occupancy for %s must be positive", cl)
		}
		if c.ExecLatency[cl] < 0 {
			return fmt.Errorf("timing: exec latency for %s must be non-negative", cl)
		}
	}
	return nil
}

// DefaultCompute returns GCN-flavoured compute timing shared by both Table 1
// configurations (they differ in CU count and memory system).
func DefaultCompute(numCUs int) Config {
	var lat, occ [isa.FUClassCount]event.Time
	lat[isa.FUScalar] = 1
	lat[isa.FUVectorInt] = 4
	lat[isa.FUVectorFP] = 4
	lat[isa.FUVectorSpecial] = 16
	lat[isa.FUScalarMem] = 0 // scalar loads block on the cache round trip
	lat[isa.FUVectorMem] = 0 // asynchronous; see VectorMemIssueCycles
	lat[isa.FULDS] = 8
	lat[isa.FUBranch] = 1
	lat[isa.FUSync] = 1

	occ[isa.FUScalar] = 1
	occ[isa.FUVectorInt] = 4
	occ[isa.FUVectorFP] = 4
	occ[isa.FUVectorSpecial] = 8
	occ[isa.FUScalarMem] = 1
	occ[isa.FUVectorMem] = 4
	occ[isa.FULDS] = 4
	occ[isa.FUBranch] = 1
	occ[isa.FUSync] = 1

	return Config{
		NumCUs:               numCUs,
		SIMDsPerCU:           4,
		WarpSlotsPerSIMD:     10,
		ExecLatency:          lat,
		IssueOccupancy:       occ,
		VectorMemIssueCycles: 4,
		BarrierLatency:       8,
		DispatchLatency:      16,
	}
}
