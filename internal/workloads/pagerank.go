package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// PageRank (Hetero-Mark's PR-X): X nodes, in-edge CSR, damping 0.85. Each
// iteration runs two kernels — a contribution kernel (contrib[u] =
// rank[u]/deg[u], elementwise) and a gather kernel (rank'[v] = (1-d)/N +
// d * sum of contrib over in-neighbours). The iteration structure makes it
// the paper's showcase for kernel-sampling: after the first iteration, every
// later kernel matches a previously simulated one.
const (
	prDamping    = 0.85
	prIterations = 8
)

// prContribProgram: contrib[i] = rank[i] * invdeg[i].
// Args: s8=rank, s9=invdeg, s10=contrib, s11=n.
func prContribProgram() *isa.Program {
	b := isa.NewBuilder("pr_contrib")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 11, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.I(isa.OpVAdd, isa.V(5), isa.V(2), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(6), isa.V(5), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFMul, isa.V(7), isa.V(4), isa.V(6))
	b.I(isa.OpVAdd, isa.V(8), isa.V(2), isa.S(10))
	b.Store(isa.OpVStore, isa.V(8), isa.V(7), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// prGatherProgram: rank'[v] = base + d * sum(contrib[src]) over the CSR
// in-edges, with the same divergent-loop shape as SpMV.
// Args: s8=rowPtr, s9=srcIdx, s10=contrib, s11=rankOut, s12=n.
func prGatherProgram(base float32) *isa.Program {
	b := isa.NewBuilder("pr_gather")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 12, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.Load(isa.OpVLoad, isa.V(5), isa.V(3), 4)
	b.Waitcnt(0)
	b.I(isa.OpVMov, isa.V(6), isa.ImmF32(0))
	b.Label("loop")
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(4), isa.V(5))
	b.I(isa.OpSAndSaveExec, isa.Mask(1))
	b.Br(isa.OpCBranchExecZ, "exit")
	b.I(isa.OpVLShl, isa.V(7), isa.V(4), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(8), isa.V(7), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(9), isa.V(8), 0) // src node
	b.Waitcnt(0)
	b.I(isa.OpVLShl, isa.V(10), isa.V(9), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(10), isa.V(10), isa.S(10))
	b.Load(isa.OpVLoad, isa.V(11), isa.V(10), 0) // contrib[src]
	b.Waitcnt(0)
	b.I(isa.OpVFAdd, isa.V(6), isa.V(6), isa.V(11))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.Imm(1))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	b.Br(isa.OpSBranch, "loop")
	b.Label("exit")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	b.I(isa.OpVFMul, isa.V(6), isa.V(6), isa.ImmF32(prDamping))
	b.I(isa.OpVFAdd, isa.V(6), isa.V(6), isa.ImmF32(base))
	b.I(isa.OpVAdd, isa.V(12), isa.V(2), isa.S(11))
	b.Store(isa.OpVStore, isa.V(12), isa.V(6), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

const prSeed = 0x96a6e

// prInvDeg returns each node's inverse out-degree, 0 for a node with no
// out-edges, from the sources of every in-edge.
func prInvDeg(srcs []uint32, nodes int) []float32 {
	outDeg := make([]int, nodes)
	for _, src := range srcs {
		outDeg[src]++
	}
	invDeg := make([]float32, nodes)
	for i, d := range outDeg {
		if d > 0 {
			invDeg[i] = 1 / float32(d)
		}
	}
	return invDeg
}

// BuildPageRank constructs PR-X for X = nodes. The node count must be a
// multiple of the wavefront size.
func BuildPageRank(nodes int) (*App, error) {
	if nodes <= 0 || nodes%kernel.WavefrontSize != 0 {
		return nil, fmt.Errorf("pagerank: node count %d must be a positive multiple of %d",
			nodes, kernel.WavefrontSize)
	}
	warps := nodes / kernel.WavefrontSize
	m := mem.NewFlat()
	graph := makeCSR(nodes, nodes, prSeed) // row v lists the in-edges of v
	rowPtr := m.Alloc(uint64(4 * (nodes + 1)))
	srcIdx := m.Alloc(uint64(4 * len(graph.colIdx)))
	rankA := m.Alloc(uint64(4 * nodes))
	rankB := m.Alloc(uint64(4 * nodes))
	invDegBuf := m.Alloc(uint64(4 * nodes))
	contrib := m.Alloc(uint64(4 * nodes))

	m.WriteWords(rowPtr, graph.rowPtr)
	m.WriteWords(srcIdx, graph.colIdx)
	m.WriteFloats(invDegBuf, prInvDeg(graph.colIdx, nodes))
	m.FillFloats(rankA, nodes, func(c []float32) {
		for i := range c {
			c[i] = 1 / float32(nodes)
		}
	})

	base := float32(1-prDamping) / float32(nodes)
	contribProg := prContribProgram()
	gatherProg := prGatherProgram(base)

	app := &App{Name: fmt.Sprintf("PR-%d", nodes), Mem: m}
	in, out := rankA, rankB
	for it := 0; it < prIterations; it++ {
		app.Launches = append(app.Launches, &kernel.Launch{
			Name: "pr_contrib", Program: contribProg, Memory: m,
			NumWorkgroups: warps, WarpsPerGroup: 1,
			Args: []uint32{uint32(in), uint32(invDegBuf), uint32(contrib), uint32(nodes)},
		})
		app.Launches = append(app.Launches, &kernel.Launch{
			Name: "pr_gather", Program: gatherProg, Memory: m,
			NumWorkgroups: warps, WarpsPerGroup: 1,
			Args: []uint32{uint32(rowPtr), uint32(srcIdx), uint32(contrib), uint32(out), uint32(nodes)},
		})
		in, out = out, in
	}

	app.Check = func() error {
		// Host reference with the same float32 arithmetic and iteration
		// count; `in` holds the final ranks after the last swap.
		graph := makeCSR(nodes, nodes, prSeed)
		invDeg := prInvDeg(graph.colIdx, nodes)
		rank := make([]float32, nodes)
		next := make([]float32, nodes)
		for i := range rank {
			rank[i] = 1 / float32(nodes)
		}
		hc := make([]float32, nodes)
		for it := 0; it < prIterations; it++ {
			for i := range hc {
				hc[i] = rank[i] * invDeg[i]
			}
			for v := 0; v < nodes; v++ {
				var s float32
				for k := graph.rowPtr[v]; k < graph.rowPtr[v+1]; k++ {
					s = s + hc[graph.colIdx[k]]
				}
				next[v] = s*prDamping + base
			}
			rank, next = next, rank
		}
		for v := 0; v < nodes; v += max(1, nodes/131) {
			if got := m.ReadF32(in + uint64(4*v)); got != rank[v] {
				return fmt.Errorf("pagerank: rank[%d] = %v, want %v", v, got, rank[v])
			}
		}
		return nil
	}
	return app, nil
}
