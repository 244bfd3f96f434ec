package dnn

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// Tiled GEMM over row-major matrices: Y[M×N] = act(X[M×K]·W[K×N] + bias
// (+ residual)). One warp computes a (row, 64-column block) strip; the
// k-loop is register-tiled — gemmKTile taps' scalar X loads and vector W
// loads issue back-to-back with a single s_waitcnt per tile, so the memory
// system sees the whole tile's loads in flight at once. This is the
// workhorse behind the transformer's projections and FFNs.

// gemmKTile is the k-loop unroll factor (taps per tile).
const gemmKTile = 4

// GemmSpec is one GEMM shape; programs are cached on its key so every
// same-shape launch (e.g. the Q/K/V projections of every layer) shares one
// program — the repetition kernel-sampling exploits.
type GemmSpec struct {
	M, K, N  int
	ReLU     bool
	Residual bool
}

func (gs GemmSpec) key() string {
	return fmt.Sprintf("gemm_m%d_k%d_n%d_r%v_res%v", gs.M, gs.K, gs.N, gs.ReLU, gs.Residual)
}

func (gs GemmSpec) colBlocks() int {
	return (gs.N + kernel.WavefrontSize - 1) / kernel.WavefrontSize
}

// warps returns the launch grid size (one warp per row × column block).
func (gs GemmSpec) warps() int { return gs.M * gs.colBlocks() }

// gemmProgram emits the tiled GEMM kernel.
// Args: s8=X, s9=W, s10=Y, s11=bias, s12=residual (when Residual).
func gemmProgram(gs GemmSpec) *isa.Program {
	b := isa.NewBuilder(gs.key())
	blocks := gs.colBlocks()
	// Decode warp -> (row s4, column block s5); col = s5*64 + lane.
	if blocks > 1 {
		b.I(isa.OpSDiv, isa.S(4), isa.S(2), isa.Imm(int32(blocks)))
		b.I(isa.OpSMod, isa.S(5), isa.S(2), isa.Imm(int32(blocks)))
	} else {
		b.I(isa.OpSMov, isa.S(4), isa.S(2))
		b.I(isa.OpSMov, isa.S(5), isa.Imm(0))
	}
	b.I(isa.OpSLShl, isa.S(6), isa.S(5), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(6)) // col
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(gs.N)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2)) // col*4
	// X row base: s13 = X + row*K*4 (advanced through the k-loop).
	b.I(isa.OpSMul, isa.S(13), isa.S(4), isa.Imm(int32(4*gs.K)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	// W column pointer: v3 = W + col*4 (advanced by tile strides).
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(9))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0)) // acc
	tile := gemmKTile
	if gs.K%tile != 0 {
		tile = 1
	}
	b.I(isa.OpSMov, isa.S(15), isa.Imm(0)) // k tile counter
	b.Label("k")
	// Issue the whole tile's loads, then drain them with one waitcnt: the
	// scalar X taps land in s20.., the vector W rows in v16.. .
	for t := 0; t < tile; t++ {
		b.Load(isa.OpSLoad, isa.S(20+t), isa.S(13), int32(4*t))
		b.Load(isa.OpVLoad, isa.V(16+t), isa.V(3), int32(4*t*gs.N))
	}
	b.Waitcnt(0)
	for t := 0; t < tile; t++ {
		b.I(isa.OpVFFma, isa.V(5), isa.V(16+t), isa.S(20+t), isa.V(5))
	}
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*tile)))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(int32(4*tile*gs.N)))
	b.I(isa.OpSAdd, isa.S(15), isa.S(15), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(15), isa.Imm(int32(gs.K/tile)))
	b.Br(isa.OpCBranchSCC1, "k")
	// + bias[col].
	b.I(isa.OpVAdd, isa.V(6), isa.V(2), isa.S(11))
	b.Load(isa.OpVLoad, isa.V(8), isa.V(6), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFAdd, isa.V(5), isa.V(5), isa.V(8))
	// Row offset in Y (and the residual, which shares Y's shape).
	b.I(isa.OpSMul, isa.S(16), isa.S(4), isa.Imm(int32(4*gs.N)))
	if gs.Residual {
		b.I(isa.OpSAdd, isa.S(17), isa.S(16), isa.S(12))
		b.I(isa.OpVAdd, isa.V(7), isa.V(2), isa.S(17))
		b.Load(isa.OpVLoad, isa.V(9), isa.V(7), 0)
		b.Waitcnt(0)
		b.I(isa.OpVFAdd, isa.V(5), isa.V(5), isa.V(9))
	}
	if gs.ReLU {
		b.I(isa.OpVFMax, isa.V(5), isa.V(5), isa.ImmF32(0))
	}
	b.I(isa.OpSAdd, isa.S(16), isa.S(16), isa.S(10))
	b.I(isa.OpVAdd, isa.V(10), isa.V(2), isa.S(16))
	b.Store(isa.OpVStore, isa.V(10), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// GEMM appends y = act(x·w + bias [+ residual]) with freshly initialized
// weights [x.C × outCols] and bias [outCols]. residual, when non-nil, must
// share y's shape and is added before the activation (fusing the
// transformer's residual connections into the projection that produces
// them).
func (n *Net) GEMM(name string, x Mat, outCols int, relu bool, residual *Mat) Mat {
	gs := GemmSpec{M: x.R, K: x.C, N: outCols, ReLU: relu, Residual: residual != nil}
	y := n.NewMat(x.R, outCols)
	w := n.allocWeights(x.C * outCols)
	bias := n.allocWeights(outCols)
	p := n.program(gs.key(), func() *isa.Program { return gemmProgram(gs) })
	args := []uint32{uint32(x.Base), uint32(w), uint32(y.Base), uint32(bias)}
	if residual != nil {
		if residual.R != y.R || residual.C != y.C {
			panic(fmt.Sprintf("dnn: %s: residual %dx%d does not match output %dx%d",
				name, residual.R, residual.C, y.R, y.C))
		}
		args = append(args, uint32(residual.Base))
	}
	n.addLaunch(name, p, gs.warps(), 1, args)
	return y
}
