package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// Reduction sums a large float array with the classic multi-pass GPU
// pattern: each workgroup of 4 warps loads 256 elements, tree-reduces them
// in LDS across log2(256) barrier-separated steps, and writes one partial
// sum; passes repeat until one value remains. An extension workload that
// stresses barriers and LDS far more than the Table 2 kernels (8 barriers
// per workgroup), with a geometrically shrinking grid across passes.

const redGroupSize = 256 // threads per workgroup (4 warps)

// reductionProgram: out[wg] = sum(in[wg*256 .. wg*256+255]).
// Args: s8=in, s9=out, s10=n.
func reductionProgram() *isa.Program {
	b := isa.NewBuilder("reduce256")
	b.SetLDS(redGroupSize * 4)
	// t = warpInWG*64 + lane; global index = wg*256 + t.
	b.I(isa.OpSLShl, isa.S(4), isa.S(1), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // t in [0,256)
	b.I(isa.OpSMul, isa.S(5), isa.S(0), isa.Imm(redGroupSize))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(5)) // global index
	// Guarded load: x = idx < n ? in[idx] : 0.
	b.I(isa.OpVMov, isa.V(3), isa.ImmF32(0))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(2), isa.S(10))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "noload")
	b.I(isa.OpVLShl, isa.V(4), isa.V(2), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(4), 0)
	b.Waitcnt(0)
	b.Label("noload")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	// LDS[t] = x; then tree-reduce with a barrier per step.
	b.I(isa.OpVLShl, isa.V(5), isa.V(1), isa.Imm(2))
	b.Store(isa.OpLDSStore, isa.V(5), isa.V(3), 0)
	b.Barrier()
	for stride := redGroupSize / 2; stride >= 1; stride /= 2 {
		// if t < stride: LDS[t] += LDS[t+stride]
		b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(stride)))
		b.I(isa.OpSAndSaveExec, isa.Mask(1))
		b.Load(isa.OpLDSLoad, isa.V(6), isa.V(5), 0)
		b.Load(isa.OpLDSLoad, isa.V(7), isa.V(5), int32(4*stride))
		b.I(isa.OpVFAdd, isa.V(6), isa.V(6), isa.V(7))
		b.Store(isa.OpLDSStore, isa.V(5), isa.V(6), 0)
		b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
		b.Barrier()
	}
	// Thread 0 writes the partial sum to out[wg].
	b.I(isa.OpVCmpEq, isa.Operand{}, isa.V(1), isa.Imm(0))
	b.I(isa.OpSAndSaveExec, isa.Mask(1))
	b.Br(isa.OpCBranchExecZ, "done")
	b.Load(isa.OpLDSLoad, isa.V(8), isa.V(5), 0)
	b.I(isa.OpSLShl, isa.S(6), isa.S(0), isa.Imm(2))
	b.I(isa.OpSAdd, isa.S(6), isa.S(6), isa.S(9))
	b.I(isa.OpVMov, isa.V(9), isa.S(6))
	b.Store(isa.OpVStore, isa.V(9), isa.V(8), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	b.End()
	return b.MustBuild()
}

// BuildReduction constructs the multi-pass reduction at the given problem
// size in warps (the first pass's warp count; later passes shrink 256x).
func BuildReduction(warps int) (*App, error) {
	if warps <= 0 || warps%4 != 0 {
		return nil, fmt.Errorf("reduction: warps must be a positive multiple of 4 (whole workgroups)")
	}
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	in := m.Alloc(uint64(4 * n))
	rng := NewRNG(0x4edc)
	host := make([]float32, n)
	for i := range host {
		host[i] = rng.Float32()
	}
	m.WriteFloats(in, host)

	prog := reductionProgram()
	app := &App{Name: "Reduction", Mem: m}
	cur := in
	curN := n
	var finalBuf uint64
	for curN > 1 {
		groups := (curN + redGroupSize - 1) / redGroupSize
		out := m.Alloc(uint64(4 * groups))
		app.Launches = append(app.Launches, &kernel.Launch{
			Name: "reduce256", Program: prog, Memory: m,
			NumWorkgroups: groups, WarpsPerGroup: redGroupSize / kernel.WavefrontSize,
			Args: []uint32{uint32(cur), uint32(out), uint32(curN)},
		})
		cur, curN = out, groups
		finalBuf = out
	}

	app.Check = func() error {
		// Replay the exact tree-reduction order in float32 on the host.
		level := make([]float32, n)
		copy(level, host)
		for len(level) > 1 {
			groups := (len(level) + redGroupSize - 1) / redGroupSize
			next := make([]float32, groups)
			for g := 0; g < groups; g++ {
				var buf [redGroupSize]float32
				for t := 0; t < redGroupSize; t++ {
					if idx := g*redGroupSize + t; idx < len(level) {
						buf[t] = level[idx]
					}
				}
				for stride := redGroupSize / 2; stride >= 1; stride /= 2 {
					for t := 0; t < stride; t++ {
						buf[t] = buf[t] + buf[t+stride]
					}
				}
				next[g] = buf[0]
			}
			level = next
		}
		got := m.ReadF32(finalBuf)
		if got != level[0] {
			return fmt.Errorf("reduction: sum = %v, want %v", got, level[0])
		}
		return nil
	}
	return app, nil
}
