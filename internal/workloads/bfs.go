package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// BFS (breadth-first search) over a synthetic CSR graph, level-synchronous:
// one kernel launch per level, each scanning all vertices and relaxing the
// frontier's out-edges with atomic-min on the level array. An extension
// workload: highly irregular (the active frontier is a small, changing
// subset of threads) and multi-kernel (one launch per level, all sharing one
// program — a kernel-sampling stress case where the same code has different
// behavior per launch).

const bfsInfinity = 0x3fffffff

// bfsLevelProgram relaxes one level.
// Args: s8=rowPtr, s9=colIdx, s10=level, s11=n, s12=currentLevel.
func bfsLevelProgram() *isa.Program {
	b := isa.NewBuilder("bfs_level")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 11, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(10))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0) // level[v]
	b.Waitcnt(0)
	// Mask to the frontier: level[v] == currentLevel.
	b.I(isa.OpVCmpEq, isa.Operand{}, isa.V(4), isa.S(12))
	b.I(isa.OpSAndSaveExec, isa.Mask(1))
	b.Br(isa.OpCBranchExecZ, "exit")
	b.I(isa.OpVAdd, isa.V(5), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(6), isa.V(5), 0) // k = rowPtr[v]
	b.Load(isa.OpVLoad, isa.V(7), isa.V(5), 4) // end = rowPtr[v+1]
	b.Waitcnt(0)
	b.I(isa.OpSAdd, isa.S(5), isa.S(12), isa.Imm(1)) // next level
	b.Label("edge")
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(6), isa.V(7))
	b.I(isa.OpSAndSaveExec, isa.Mask(2))
	b.Br(isa.OpCBranchExecZ, "edges_done")
	b.I(isa.OpVLShl, isa.V(8), isa.V(6), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(8), isa.V(8), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(9), isa.V(8), 0) // nbr
	b.Waitcnt(0)
	b.I(isa.OpVLShl, isa.V(10), isa.V(9), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(10), isa.V(10), isa.S(10))
	b.I(isa.OpVAtomicMin, isa.Operand{}, isa.V(10), isa.S(5))
	b.Waitcnt(0)
	b.I(isa.OpVAdd, isa.V(6), isa.V(6), isa.Imm(1))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(2))
	b.Br(isa.OpSBranch, "edge")
	b.Label("edges_done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(2))
	b.Label("exit")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

const (
	bfsSeed   = 0xbf5
	bfsSource = 0
)

// bfsLevels runs the host BFS from bfsSource over graph's n vertices and
// returns each vertex's level and the number of levels, which is the number
// of level kernels.
func bfsLevels(graph *csr, n int) ([]uint32, int) {
	want := make([]uint32, n)
	for i := range want {
		want[i] = bfsInfinity
	}
	want[bfsSource] = 0
	frontier := []uint32{bfsSource}
	levels := 0
	for len(frontier) > 0 {
		var next []uint32
		for _, v := range frontier {
			for k := graph.rowPtr[v]; k < graph.rowPtr[v+1]; k++ {
				nbr := graph.colIdx[k]
				if want[nbr] == bfsInfinity {
					want[nbr] = uint32(levels + 1)
					next = append(next, nbr)
				}
			}
		}
		frontier = next
		levels++
	}
	return want, levels
}

// BuildBFS constructs the BFS extension workload over a graph with warps*64
// vertices. The number of level kernels is determined by a host-side BFS
// over the same graph, so the launch list is static and exact.
func BuildBFS(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("bfs: warps must be positive")
	}
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	graph := makeCSR(n, n, bfsSeed) // row v lists out-edges of v
	_, levels := bfsLevels(graph, n)

	rowPtr := m.Alloc(uint64(4 * (n + 1)))
	colIdx := m.Alloc(uint64(4 * len(graph.colIdx)))
	level := m.Alloc(uint64(4 * n))
	m.WriteWords(rowPtr, graph.rowPtr)
	m.WriteWords(colIdx, graph.colIdx)
	m.FillWords(level, n, func(c []uint32) {
		for i := range c {
			c[i] = bfsInfinity
		}
	})
	m.Write32(level+4*bfsSource, 0)

	prog := bfsLevelProgram()
	app := &App{Name: "BFS", Mem: m}
	for cur := 0; cur < levels; cur++ {
		app.Launches = append(app.Launches, &kernel.Launch{
			Name: "bfs_level", Program: prog, Memory: m,
			NumWorkgroups: warps, WarpsPerGroup: 1,
			Args: []uint32{uint32(rowPtr), uint32(colIdx), uint32(level), uint32(n), uint32(cur)},
		})
	}

	app.Check = func() error {
		// Atomic-min makes the result schedule-independent: levels must
		// match a host BFS over the regenerated graph exactly.
		want, _ := bfsLevels(makeCSR(n, n, bfsSeed), n)
		for v := 0; v < n; v++ {
			if got := m.Read32(level + uint64(4*v)); got != want[v] {
				return fmt.Errorf("bfs: level[%d] = %d, want %d", v, got, want[v])
			}
		}
		return nil
	}
	return app, nil
}
