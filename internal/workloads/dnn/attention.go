package dnn

import (
	"fmt"
	"math"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// Scaled-dot-product attention and LayerNorm kernels. The softmax and
// LayerNorm are the interesting ones for the simulator: both are row
// reductions that span warps, so they run a workgroup per row and
// tree-reduce through LDS with a barrier per step — the same
// schedule-independent pattern as the multi-pass reduction workload, but
// embedded in a real model's kernel sequence.

// lnEps is the LayerNorm variance epsilon.
const lnEps = 1e-5

// rowGroup sizes the workgroup for a row-reduction kernel over rows of
// length rowLen: one thread per element, at least one full warp, at most
// 256 threads (4 warps of LDS tree depth 8).
func rowGroup(what string, rowLen int) (threads, warps int) {
	assertPow2(what+" row length", rowLen)
	if rowLen > 256 {
		panic(fmt.Sprintf("dnn: %s row length %d exceeds the 256-thread row group", what, rowLen))
	}
	threads = rowLen
	if threads < kernel.WavefrontSize {
		threads = kernel.WavefrontSize
	}
	return threads, threads / kernel.WavefrontSize
}

// emitRowThread computes t = warpInGroup*64 + lane into v1 and the LDS byte
// address t*4 into v2.
func emitRowThread(b *isa.Builder) {
	b.I(isa.OpSLShl, isa.S(4), isa.S(1), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
}

// emitTreeReduce folds LDS[0..threads) down to LDS[0] with op, one barrier
// per stride step (mask slot 1 is scratch). On return every thread can read
// the result at LDS[0]; a barrier must separate that read from any reuse of
// the scratch region.
func emitTreeReduce(b *isa.Builder, threads int, op isa.Op) {
	for stride := threads / 2; stride >= 1; stride /= 2 {
		b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(stride)))
		b.I(isa.OpSAndSaveExec, isa.Mask(1))
		b.Load(isa.OpLDSLoad, isa.V(6), isa.V(2), 0)
		b.Load(isa.OpLDSLoad, isa.V(7), isa.V(2), int32(4*stride))
		b.I(op, isa.V(6), isa.V(6), isa.V(7))
		b.Store(isa.OpLDSStore, isa.V(2), isa.V(6), 0)
		b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
		b.Barrier()
	}
}

// attnScoresProgram: scores[q][j] = scale * sum_d Q[q][d]·K[j][d] for one
// head. Q and K are [seq × stride] row-major slices (stride = d_model, so
// one program serves every head via base-address args); scores is seq×seq.
// One warp per (query row, 64-key block); lanes walk key positions.
// Args: s8=Q, s9=K, s10=scores.
func attnScoresProgram(seq, dHead, stride int) *isa.Program {
	scale := float32(1 / math.Sqrt(float64(dHead)))
	blocks := (seq + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	b := isa.NewBuilder(fmt.Sprintf("attn_scores_s%d_d%d_t%d", seq, dHead, stride))
	if blocks > 1 {
		b.I(isa.OpSDiv, isa.S(4), isa.S(2), isa.Imm(int32(blocks)))
		b.I(isa.OpSMod, isa.S(5), isa.S(2), isa.Imm(int32(blocks)))
	} else {
		b.I(isa.OpSMov, isa.S(4), isa.S(2))
		b.I(isa.OpSMov, isa.S(5), isa.Imm(0))
	}
	b.I(isa.OpSLShl, isa.S(6), isa.S(5), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(6)) // key j
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(seq)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	// Q row pointer: s13 = Q + q*stride*4 (advances 4 bytes per d).
	b.I(isa.OpSMul, isa.S(13), isa.S(4), isa.Imm(int32(4*stride)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	// K row pointer per lane: v3 = K + j*stride*4.
	b.I(isa.OpVMul, isa.V(3), isa.V(1), isa.Imm(int32(4*stride)))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(9))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	b.I(isa.OpSMov, isa.S(15), isa.Imm(0)) // d
	b.Label("d")
	b.Load(isa.OpSLoad, isa.S(20), isa.S(13), 0)
	b.Load(isa.OpVLoad, isa.V(16), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(5), isa.V(16), isa.S(20), isa.V(5))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(4))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(4))
	b.I(isa.OpSAdd, isa.S(15), isa.S(15), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(15), isa.Imm(int32(dHead)))
	b.Br(isa.OpCBranchSCC1, "d")
	b.I(isa.OpVFMul, isa.V(5), isa.V(5), isa.ImmF32(scale))
	// scores[q][j]: s16 = scores + q*seq*4.
	b.I(isa.OpSMul, isa.S(16), isa.S(4), isa.Imm(int32(4*seq)))
	b.I(isa.OpSAdd, isa.S(16), isa.S(16), isa.S(10))
	b.I(isa.OpVLShl, isa.V(9), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.S(16))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// softmaxProgram: out[row] = softmax(in[row]) with max-subtraction, one
// workgroup per row. The row max and the exp-sum are cross-warp LDS tree
// reductions with a barrier per step. Args: s8=in, s9=out.
func softmaxProgram(seq int) *isa.Program {
	threads, _ := rowGroup("softmax", seq)
	b := isa.NewBuilder(fmt.Sprintf("softmax_s%d", seq))
	b.SetLDS(threads * 4)
	emitRowThread(b)
	// Row base: s5 = in + row*seq*4 (row = workgroup id s0).
	b.I(isa.OpSMul, isa.S(5), isa.S(0), isa.Imm(int32(4*seq)))
	b.I(isa.OpSAdd, isa.S(6), isa.S(5), isa.S(8))
	// x = t < seq ? in[row][t] : -inf (identity of max).
	b.I(isa.OpVMov, isa.V(3), isa.ImmF32(float32(math.Inf(-1))))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(seq)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "noload")
	b.I(isa.OpVAdd, isa.V(4), isa.V(2), isa.S(6))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(4), 0)
	b.Waitcnt(0)
	b.Label("noload")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	// Row max through LDS.
	b.Store(isa.OpLDSStore, isa.V(2), isa.V(3), 0)
	b.Barrier()
	emitTreeReduce(b, threads, isa.OpVFMax)
	b.I(isa.OpVMov, isa.V(8), isa.Imm(0))
	b.Load(isa.OpLDSLoad, isa.V(9), isa.V(8), 0) // m = row max
	b.Barrier()                                  // everyone has m before LDS is reused
	// e = t < seq ? exp(x - m) : 0 (identity of sum).
	b.I(isa.OpVFSub, isa.V(10), isa.V(3), isa.V(9))
	b.I(isa.OpVFExp, isa.V(10), isa.V(10))
	b.I(isa.OpVMov, isa.V(11), isa.ImmF32(0))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(seq)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.I(isa.OpVMov, isa.V(11), isa.V(10))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	// Exp-sum through LDS.
	b.Store(isa.OpLDSStore, isa.V(2), isa.V(11), 0)
	b.Barrier()
	emitTreeReduce(b, threads, isa.OpVFAdd)
	b.Load(isa.OpLDSLoad, isa.V(12), isa.V(8), 0) // s = sum of exps
	// out = e / s for t < seq.
	b.I(isa.OpVFRcp, isa.V(12), isa.V(12))
	b.I(isa.OpVFMul, isa.V(13), isa.V(11), isa.V(12))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(seq)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpSAdd, isa.S(7), isa.S(5), isa.S(9))
	b.I(isa.OpVAdd, isa.V(14), isa.V(2), isa.S(7))
	b.Store(isa.OpVStore, isa.V(14), isa.V(13), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// attnPVProgram: out[q][d] = sum_j P[q][j]·V[j][d] for one head. P is
// seq×seq; V and out are [seq × stride] slices (head columns selected via
// base args). One warp per query row; lanes walk the head dimension.
// Args: s8=P, s9=V, s10=out.
func attnPVProgram(seq, dHead, stride int) *isa.Program {
	if dHead > kernel.WavefrontSize {
		panic(fmt.Sprintf("dnn: attention head dim %d exceeds wavefront size", dHead))
	}
	b := isa.NewBuilder(fmt.Sprintf("attn_pv_s%d_d%d_t%d", seq, dHead, stride))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(0), isa.Imm(int32(dHead)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	// P row pointer: s13 = P + q*seq*4 (q = warp id s2).
	b.I(isa.OpSMul, isa.S(13), isa.S(2), isa.Imm(int32(4*seq)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	// V column pointer per lane: v3 = V + d*4 (advances stride*4 per j).
	b.I(isa.OpVLShl, isa.V(2), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(9))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	b.I(isa.OpSMov, isa.S(15), isa.Imm(0)) // j
	b.Label("j")
	b.Load(isa.OpSLoad, isa.S(20), isa.S(13), 0)
	b.Load(isa.OpVLoad, isa.V(16), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(5), isa.V(16), isa.S(20), isa.V(5))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(4))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(int32(4*stride)))
	b.I(isa.OpSAdd, isa.S(15), isa.S(15), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(15), isa.Imm(int32(seq)))
	b.Br(isa.OpCBranchSCC1, "j")
	// out[q][d]: s16 = out + q*stride*4.
	b.I(isa.OpSMul, isa.S(16), isa.S(2), isa.Imm(int32(4*stride)))
	b.I(isa.OpSAdd, isa.S(16), isa.S(16), isa.S(10))
	b.I(isa.OpVAdd, isa.V(9), isa.V(2), isa.S(16))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// layerNormProgram: out[row] = (x - mean)/sqrt(var + eps) * gamma + beta,
// one workgroup per row of length dim; mean and variance are cross-warp LDS
// tree sums. Variance uses E[(x-mean)^2] (the numerically stable two-pass
// form; the host reference replays the same order).
// Args: s8=x, s9=gamma, s10=beta, s11=out.
func layerNormProgram(dim int) *isa.Program {
	threads, _ := rowGroup("layernorm", dim)
	b := isa.NewBuilder(fmt.Sprintf("layernorm_d%d", dim))
	b.SetLDS(threads * 4)
	emitRowThread(b)
	// Row base offset: s5 = row*dim*4.
	b.I(isa.OpSMul, isa.S(5), isa.S(0), isa.Imm(int32(4*dim)))
	b.I(isa.OpSAdd, isa.S(6), isa.S(5), isa.S(8))
	// x = t < dim ? x[row][t] : 0 (identity of sum).
	b.I(isa.OpVMov, isa.V(3), isa.ImmF32(0))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(dim)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "noload")
	b.I(isa.OpVAdd, isa.V(4), isa.V(2), isa.S(6))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(4), 0)
	b.Waitcnt(0)
	b.Label("noload")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	// mean = sum(x)/dim.
	b.Store(isa.OpLDSStore, isa.V(2), isa.V(3), 0)
	b.Barrier()
	emitTreeReduce(b, threads, isa.OpVFAdd)
	b.I(isa.OpVMov, isa.V(8), isa.Imm(0))
	b.Load(isa.OpLDSLoad, isa.V(9), isa.V(8), 0)
	b.Barrier()
	b.I(isa.OpVFMul, isa.V(9), isa.V(9), isa.ImmF32(1/float32(dim))) // mean
	// var = sum((x-mean)^2)/dim; masked lanes contribute 0.
	b.I(isa.OpVFSub, isa.V(10), isa.V(3), isa.V(9)) // centered
	b.I(isa.OpVFMul, isa.V(11), isa.V(10), isa.V(10))
	b.I(isa.OpVMov, isa.V(12), isa.ImmF32(0))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(dim)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.I(isa.OpVMov, isa.V(12), isa.V(11))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.Store(isa.OpLDSStore, isa.V(2), isa.V(12), 0)
	b.Barrier()
	emitTreeReduce(b, threads, isa.OpVFAdd)
	b.Load(isa.OpLDSLoad, isa.V(13), isa.V(8), 0)
	b.I(isa.OpVFMul, isa.V(13), isa.V(13), isa.ImmF32(1/float32(dim)))
	// rstd = 1/sqrt(var + eps).
	b.I(isa.OpVFAdd, isa.V(13), isa.V(13), isa.ImmF32(lnEps))
	b.I(isa.OpVFSqrt, isa.V(13), isa.V(13))
	b.I(isa.OpVFRcp, isa.V(13), isa.V(13))
	// out = centered*rstd*gamma[t] + beta[t] for t < dim.
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(dim)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVAdd, isa.V(14), isa.V(2), isa.S(9))
	b.I(isa.OpVAdd, isa.V(15), isa.V(2), isa.S(10))
	b.Load(isa.OpVLoad, isa.V(16), isa.V(14), 0) // gamma
	b.Load(isa.OpVLoad, isa.V(17), isa.V(15), 0) // beta
	b.Waitcnt(0)
	b.I(isa.OpVFMul, isa.V(18), isa.V(10), isa.V(13))
	b.I(isa.OpVFFma, isa.V(18), isa.V(18), isa.V(16), isa.V(17))
	b.I(isa.OpSAdd, isa.S(7), isa.S(5), isa.S(11))
	b.I(isa.OpVAdd, isa.V(19), isa.V(2), isa.S(7))
	b.Store(isa.OpVStore, isa.V(19), isa.V(18), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// LayerNorm appends a row-wise LayerNorm over x with freshly initialized
// gamma/beta.
func (n *Net) LayerNorm(name string, x Mat) Mat {
	out := n.NewMat(x.R, x.C)
	gamma := n.allocWeights(x.C)
	beta := n.allocWeights(x.C)
	_, warps := rowGroup("layernorm", x.C)
	p := n.program(fmt.Sprintf("layernorm_d%d", x.C), func() *isa.Program {
		return layerNormProgram(x.C)
	})
	n.addLaunch(name, p, x.R, warps,
		[]uint32{uint32(x.Base), uint32(gamma), uint32(beta), uint32(out.Base)})
	return out
}
