package workloads

import (
	"fmt"
	"math"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// KMeans clustering (Hetero-Mark carries a KMeans benchmark; this is an
// extension workload here since it needs the atomic instructions the paper's
// MGPUSim lacked). Each iteration launches four kernels — assign, clear,
// accumulate (atomic float adds into per-cluster sums), divide — giving a
// multi-kernel iteration structure like PageRank's, with heavier per-thread
// compute in the assign kernel.
const (
	kmDims       = 4
	kmClusters   = 16
	kmIterations = 6
)

// kmAssignProgram: for each point, find the nearest centroid.
// Args: s8=points, s9=centroids, s10=assign, s11=n.
func kmAssignProgram() *isa.Program {
	b := isa.NewBuilder("km_assign")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 11, 0, "done")
	// Point base address: points + tid*D*4.
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(int32(log2(kmDims*4))))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.S(8))
	for d := 0; d < kmDims; d++ {
		b.Load(isa.OpVLoad, isa.V(10+d), isa.V(2), int32(4*d)) // coords
	}
	b.Waitcnt(0)
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(math.MaxFloat32)) // best distance
	b.I(isa.OpVMov, isa.V(6), isa.Imm(0))                  // best index
	b.I(isa.OpSMov, isa.S(5), isa.Imm(0))                  // k
	b.I(isa.OpSMov, isa.S(6), isa.S(9))                    // &centroids[k][0]
	b.Label("k")
	b.I(isa.OpVMov, isa.V(7), isa.ImmF32(0)) // dist
	for d := 0; d < kmDims; d++ {
		b.Load(isa.OpSLoad, isa.S(7), isa.S(6), int32(4*d))
		b.I(isa.OpVFSub, isa.V(8), isa.V(10+d), isa.S(7))
		b.I(isa.OpVFFma, isa.V(7), isa.V(8), isa.V(8), isa.V(7))
	}
	// if dist < best { best = dist; bestIdx = k } via lane masking.
	b.I(isa.OpVFCmpLt, isa.Operand{}, isa.V(7), isa.V(5))
	b.I(isa.OpSAndSaveExec, isa.Mask(1))
	b.I(isa.OpVMov, isa.V(5), isa.V(7))
	b.I(isa.OpVMov, isa.V(6), isa.S(5))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	b.I(isa.OpSAdd, isa.S(6), isa.S(6), isa.Imm(kmDims*4))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(5), isa.Imm(kmClusters))
	b.Br(isa.OpCBranchSCC1, "k")
	b.I(isa.OpVLShl, isa.V(9), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.S(10))
	b.Store(isa.OpVStore, isa.V(9), isa.V(6), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// kmClearProgram zeroes sums (K*D floats) and counts (K words).
// Args: s8=sums, s9=counts, s10=total words (K*D + K).
func kmClearProgram() *isa.Program {
	b := isa.NewBuilder("km_clear")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 10, 0, "done")
	// sums and counts are allocated contiguously; clear as one range.
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.S(8))
	b.I(isa.OpVMov, isa.V(3), isa.Imm(0))
	b.Store(isa.OpVStore, isa.V(2), isa.V(3), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// kmAccumProgram: atomically accumulate each point into its cluster's sums
// and bump the cluster count.
// Args: s8=points, s9=assign, s10=sums, s11=counts, s12=n.
func kmAccumProgram() *isa.Program {
	b := isa.NewBuilder("km_accum")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 12, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0) // cluster = assign[tid]
	b.Waitcnt(0)
	b.I(isa.OpVLShl, isa.V(5), isa.V(1), isa.Imm(int32(log2(kmDims*4))))
	b.I(isa.OpVAdd, isa.V(5), isa.V(5), isa.S(8)) // &points[tid][0]
	b.I(isa.OpVLShl, isa.V(6), isa.V(4), isa.Imm(int32(log2(kmDims*4))))
	b.I(isa.OpVAdd, isa.V(6), isa.V(6), isa.S(10)) // &sums[cluster][0]
	for d := 0; d < kmDims; d++ {
		b.Load(isa.OpVLoad, isa.V(7), isa.V(5), int32(4*d))
		b.Waitcnt(0)
		b.I(isa.OpVAtomicFAdd, isa.Operand{}, isa.V(6), isa.V(7))
		// Shift the sums pointer by patching the offset instead: atomics
		// carry no offset operand field here, so advance the address.
		b.I(isa.OpVAdd, isa.V(6), isa.V(6), isa.Imm(4))
	}
	b.I(isa.OpVLShl, isa.V(8), isa.V(4), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(8), isa.V(8), isa.S(11))
	b.I(isa.OpVAtomicAdd, isa.Operand{}, isa.V(8), isa.Imm(1))
	b.Waitcnt(0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// kmDivideProgram: centroids[k][d] = sums[k][d] / max(counts[k], 1).
// Args: s8=sums, s9=counts, s10=centroids, s11=K*D.
func kmDivideProgram() *isa.Program {
	b := isa.NewBuilder("km_divide")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 11, 0, "done")
	b.I(isa.OpVLShr, isa.V(2), isa.V(1), isa.Imm(int32(log2(kmDims)))) // k
	b.I(isa.OpVLShl, isa.V(3), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0) // sum
	b.I(isa.OpVLShl, isa.V(5), isa.V(2), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(5), isa.V(5), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(6), isa.V(5), 0) // count
	b.Waitcnt(0)
	b.I(isa.OpVMax, isa.V(6), isa.V(6), isa.Imm(1))
	b.I(isa.OpVCvtI2F, isa.V(7), isa.V(6))
	b.I(isa.OpVFRcp, isa.V(7), isa.V(7))
	b.I(isa.OpVFMul, isa.V(8), isa.V(4), isa.V(7))
	b.I(isa.OpVLShl, isa.V(9), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.S(10))
	b.Store(isa.OpVStore, isa.V(9), isa.V(8), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// BuildKMeans constructs the KMeans extension workload: warps*64 points,
// kmClusters clusters, kmIterations iterations of 4 kernels each.
func BuildKMeans(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("kmeans: warps must be positive")
	}
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	points := m.Alloc(uint64(4 * n * kmDims))
	centroids := m.Alloc(4 * kmClusters * kmDims)
	assign := m.Alloc(uint64(4 * n))
	sums := m.Alloc(4 * kmClusters * kmDims)
	counts := m.Alloc(4 * kmClusters)
	if counts != sums+uint64(4*kmClusters*kmDims) {
		// The clear kernel wipes sums and counts as one contiguous range;
		// the bump allocator guarantees adjacency for the 256-byte-aligned
		// sums block, but guard against future allocator changes.
		return nil, fmt.Errorf("kmeans: sums/counts not contiguous")
	}

	rng := NewRNG(0x4235)
	hostPts := make([]float32, n*kmDims)
	for i := range hostPts {
		hostPts[i] = rng.Float32() * 10
	}
	m.WriteFloats(points, hostPts)
	hostInit := make([]float32, kmClusters*kmDims)
	for i := range hostInit {
		hostInit[i] = rng.Float32() * 10
	}
	m.WriteFloats(centroids, hostInit)

	clearWords := kmClusters*kmDims + kmClusters
	clearWarps := (clearWords + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	divWarps := (kmClusters*kmDims + kernel.WavefrontSize - 1) / kernel.WavefrontSize

	assignProg := kmAssignProgram()
	clearProg := kmClearProgram()
	accumProg := kmAccumProgram()
	divProg := kmDivideProgram()

	app := &App{Name: "KMeans", Mem: m}
	for it := 0; it < kmIterations; it++ {
		app.Launches = append(app.Launches,
			&kernel.Launch{Name: "km_assign", Program: assignProg, Memory: m,
				NumWorkgroups: warps, WarpsPerGroup: 1,
				Args: []uint32{uint32(points), uint32(centroids), uint32(assign), uint32(n)}},
			&kernel.Launch{Name: "km_clear", Program: clearProg, Memory: m,
				NumWorkgroups: clearWarps, WarpsPerGroup: 1,
				Args: []uint32{uint32(sums), uint32(counts), uint32(clearWords)}},
			&kernel.Launch{Name: "km_accum", Program: accumProg, Memory: m,
				NumWorkgroups: warps, WarpsPerGroup: 1,
				Args: []uint32{uint32(points), uint32(assign), uint32(sums), uint32(counts), uint32(n)}},
			&kernel.Launch{Name: "km_divide", Program: divProg, Memory: m,
				NumWorkgroups: divWarps, WarpsPerGroup: 1,
				Args: []uint32{uint32(sums), uint32(counts), uint32(centroids), uint32(kmClusters * kmDims)}},
		)
	}

	app.Check = func() error {
		// Sanity invariants rather than bit-exact comparison: atomic float
		// accumulation order differs between schedules, so centroids can
		// drift in the last bits. Counts, however, are exact integers.
		total := uint32(0)
		for k := 0; k < kmClusters; k++ {
			total += m.Read32(counts + uint64(4*k))
		}
		if total != uint32(n) {
			return fmt.Errorf("kmeans: counts sum to %d, want %d", total, n)
		}
		for i := 0; i < kmClusters*kmDims; i++ {
			v := m.ReadF32(centroids + uint64(4*i))
			if v != v || v < -1e6 || v > 1e6 { // NaN or absurd
				return fmt.Errorf("kmeans: centroid word %d = %v", i, v)
			}
		}
		for i := 0; i < n; i += max(1, n/97) {
			if a := m.Read32(assign + uint64(4*i)); a >= kmClusters {
				return fmt.Errorf("kmeans: assign[%d] = %d out of range", i, a)
			}
		}
		return nil
	}
	return app, nil
}
