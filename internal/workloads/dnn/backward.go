package dnn

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// Backward-pass kernels for the training-step workload: FC input/weight/bias
// gradients, ReLU backward, stride-1 convolution input and weight gradients,
// and the SGD update. Every kernel uses a unique-writer decomposition — each
// gradient element is accumulated in registers by exactly one lane — so no
// floating-point atomics are needed and results are bit-deterministic.

// fcBwdDXProgram: dX[b][i] = sum_o w[i][o]*dY[b][o]. One warp per 64-input
// block per sample. Args: s8=dY, s9=w, s10=dX.
func fcBwdDXProgram(inN, outN, batch int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("fc_bwd_dx_%d_%d", inN, outN) + batchKey(batch))
	warpsPerBatch := (inN + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	emitBatchSplit(b, batch, warpsPerBatch, [][2]int{{8, outN}, {10, inN}})
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // i
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(inN)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2)) // i*4
	// Per-lane weight-row pointer: &w[i][0].
	b.I(isa.OpVMul, isa.V(3), isa.V(1), isa.Imm(int32(4*outN)))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(9))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	b.I(isa.OpSMov, isa.S(12), isa.Imm(0))
	b.I(isa.OpSMov, isa.S(13), isa.S(8)) // dY cursor
	b.Label("o")
	b.Load(isa.OpSLoad, isa.S(15), isa.S(13), 0)
	b.Load(isa.OpVLoad, isa.V(7), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(5), isa.V(7), isa.S(15), isa.V(5))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(4))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(4))
	b.I(isa.OpSAdd, isa.S(12), isa.S(12), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(12), isa.Imm(int32(outN)))
	b.Br(isa.OpCBranchSCC1, "o")
	b.I(isa.OpVAdd, isa.V(9), isa.V(2), isa.S(10))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// fcBwdDWProgram: dW[i][o] = sum_b x[b][i]*dY[b][o]. One warp per (input,
// 64-output block); the batch sum stays in registers (unique writer, no
// atomics). Args: s8=x, s9=dY, s10=dW.
func fcBwdDWProgram(inN, outN, batch int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("fc_bwd_dw_%d_%d_b%d", inN, outN, batch))
	blocks := (outN + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	if blocks > 1 {
		b.I(isa.OpSDiv, isa.S(4), isa.S(2), isa.Imm(int32(blocks)))
		b.I(isa.OpSMod, isa.S(5), isa.S(2), isa.Imm(int32(blocks)))
	} else {
		b.I(isa.OpSMov, isa.S(4), isa.S(2))
		b.I(isa.OpSMov, isa.S(5), isa.Imm(0))
	}
	b.I(isa.OpSLShl, isa.S(6), isa.S(5), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(6)) // o
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(outN)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2)) // o*4
	// x cursor: &x[0][i]; dY row pointer: &dY[0][o].
	b.I(isa.OpSLShl, isa.S(13), isa.S(4), isa.Imm(2))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(9))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	b.I(isa.OpSMov, isa.S(12), isa.Imm(0))
	b.Label("b")
	b.Load(isa.OpSLoad, isa.S(15), isa.S(13), 0)
	b.Load(isa.OpVLoad, isa.V(7), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(5), isa.V(7), isa.S(15), isa.V(5))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*inN)))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(int32(4*outN)))
	b.I(isa.OpSAdd, isa.S(12), isa.S(12), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(12), isa.Imm(int32(batch)))
	b.Br(isa.OpCBranchSCC1, "b")
	// dW[i][o] at dW + (i*outN + o)*4.
	b.I(isa.OpSMul, isa.S(16), isa.S(4), isa.Imm(int32(4*outN)))
	b.I(isa.OpSAdd, isa.S(16), isa.S(16), isa.S(10))
	b.I(isa.OpVAdd, isa.V(9), isa.V(2), isa.S(16))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// fcBwdDBProgram: dB[o] = sum_b dY[b][o]. Args: s8=dY, s9=dB.
func fcBwdDBProgram(outN, batch int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("fc_bwd_db_%d_b%d", outN, batch))
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // o
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(outN)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	for s := 0; s < batch; s++ {
		b.Load(isa.OpVLoad, isa.V(7), isa.V(3), int32(4*s*outN))
		b.Waitcnt(0)
		b.I(isa.OpVFAdd, isa.V(5), isa.V(5), isa.V(7))
	}
	b.I(isa.OpVAdd, isa.V(9), isa.V(2), isa.S(9))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// reluBwdProgram: dPre = post > 0 ? dPost : 0, elementwise over equal-shape
// tensors whose pads may differ. Args: s8=post, s9=dPost, s10=dPre.
func reluBwdProgram(post, dPost, dPre Tensor) *isa.Program {
	c, h, w := post.C, post.H, post.W
	n := c * h * w
	bb := isa.NewBuilder(fmt.Sprintf("relu_bwd_c%d_%dx%d_pa%d_pb%d_po%d",
		c, h, w, post.Pad, dPost.Pad, dPre.Pad) + batchKey(post.batch()))
	warpsPerBatch := (n + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	emitBatchSplit(bb, post.batch(), warpsPerBatch, [][2]int{
		{8, post.batchStride()}, {9, dPost.batchStride()}, {10, dPre.batchStride()}})
	bb.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	bb.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	bb.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(n)))
	bb.I(isa.OpSAndSaveExec, isa.Mask(0))
	bb.Br(isa.OpCBranchExecZ, "done")
	bb.I(isa.OpVLShr, isa.V(2), isa.V(1), isa.Imm(int32(log2(h*w)))) // c
	bb.I(isa.OpVAnd, isa.V(3), isa.V(1), isa.Imm(int32(h*w-1)))
	bb.I(isa.OpVLShr, isa.V(4), isa.V(3), isa.Imm(int32(log2(w)))) // y
	bb.I(isa.OpVAnd, isa.V(5), isa.V(3), isa.Imm(int32(w-1)))      // x
	addr := func(dst int, t Tensor, base isa.Operand) {
		bb.I(isa.OpVMul, isa.V(dst), isa.V(2), isa.Imm(int32(t.chanStride())))
		bb.I(isa.OpVMul, isa.V(15), isa.V(4), isa.Imm(int32(t.rowStride())))
		bb.I(isa.OpVAdd, isa.V(dst), isa.V(dst), isa.V(15))
		bb.I(isa.OpVAdd, isa.V(dst), isa.V(dst), isa.V(5))
		bb.I(isa.OpVAdd, isa.V(dst), isa.V(dst), isa.Imm(int32(t.Pad*t.rowStride()+t.Pad)))
		bb.I(isa.OpVLShl, isa.V(dst), isa.V(dst), isa.Imm(2))
		bb.I(isa.OpVAdd, isa.V(dst), isa.V(dst), base)
	}
	addr(6, post, isa.S(8))
	addr(7, dPost, isa.S(9))
	addr(8, dPre, isa.S(10))
	bb.Load(isa.OpVLoad, isa.V(9), isa.V(6), 0)
	bb.Load(isa.OpVLoad, isa.V(10), isa.V(7), 0)
	bb.Waitcnt(0)
	// Write 0 everywhere, then overwrite with dPost where post > 0.
	bb.I(isa.OpVMov, isa.V(11), isa.ImmF32(0))
	bb.Store(isa.OpVStore, isa.V(8), isa.V(11), 0)
	bb.I(isa.OpVFCmpGt, isa.Operand{}, isa.V(9), isa.ImmF32(0))
	bb.I(isa.OpSAndSaveExec, isa.Mask(1))
	bb.Store(isa.OpVStore, isa.V(8), isa.V(10), 0)
	bb.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	bb.Label("done")
	bb.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	bb.End()
	return bb.MustBuild()
}

// convBwdDXProgram: input gradient of a stride-1 convolution,
// dX[ci][y][x] = sum_co sum_ky,kx dY[co][y-ky+pad][x-kx+pad] * w[co][ci][ky][kx].
// dY must carry a zero halo of at least max(pad, k-1-pad) so the shifted
// reads need no bounds checks. One warp per (ci, row block) per sample.
// Args: s8=dY, s9=weights, s10=dX.
func convBwdDXProgram(cs ConvSpec, dY, dX Tensor) *isa.Program {
	if cs.Stride != 1 {
		panic("dnn: convBwdDX requires stride 1")
	}
	need := cs.Pad
	if cs.K-1-cs.Pad > need {
		need = cs.K - 1 - cs.Pad
	}
	if dY.Pad < need {
		panic(fmt.Sprintf("dnn: convBwdDX needs dY pad >= %d, have %d", need, dY.Pad))
	}
	g := geometry(cs.IH, cs.IW)
	taps := cs.K * cs.K
	dyRS, dyCS := dY.rowStride(), dY.chanStride()
	dxRS, dxCS := dX.rowStride(), dX.chanStride()

	b := isa.NewBuilder(fmt.Sprintf("conv_bwd_dx_ci%d_co%d_i%dx%d_k%d_p%d|dy%dp%d_dx%dp%d",
		cs.CI, cs.CO, cs.IH, cs.IW, cs.K, cs.Pad, dyRS, dY.Pad, dxRS, dX.Pad) + batchKey(dY.batch()))
	emitBatchSplit(b, dY.batch(), cs.CI*g.warpsPerCh,
		[][2]int{{8, dY.batchStride()}, {10, dX.batchStride()}})
	emitGeometry(b, g) // s4=ci, s6=yBase, v1=dy-row, v2=x; EXEC masked y<IH
	// vRowOff in dY plane coordinates (stride 1): (dy*dyRS + x)*4.
	b.I(isa.OpVMul, isa.V(3), isa.V(1), isa.Imm(int32(dyRS)))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.V(2))
	b.I(isa.OpVLShl, isa.V(3), isa.V(3), isa.Imm(2))
	// vRowOff in dX: (dy*dxRS + x)*4.
	b.I(isa.OpVMul, isa.V(4), isa.V(1), isa.Imm(int32(dxRS)))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.V(2))
	b.I(isa.OpVLShl, isa.V(4), isa.V(4), isa.Imm(2))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	// Weight cursor: w[co=0][ci], advancing CI*taps words per co.
	b.I(isa.OpSMul, isa.S(7), isa.S(4), isa.Imm(int32(4*taps)))
	b.I(isa.OpSAdd, isa.S(7), isa.S(7), isa.S(9))
	// dY scalar base: plane origin shifted so tap (ky,kx) reads
	// dY[y-ky+pad][x-kx+pad]: fold (Pad_dy+pad-ky)... the constant part
	// (Pad_dy + pad) goes here; -ky/-kx ride the per-tap immediate.
	b.I(isa.OpSMul, isa.S(13), isa.S(6), isa.Imm(int32(4*dyRS)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*((dY.Pad+cs.Pad-cs.K+1)*dyRS+dY.Pad+cs.Pad-cs.K+1))))
	b.I(isa.OpSMov, isa.S(12), isa.Imm(0)) // co

	b.Label("co")
	b.I(isa.OpVAdd, isa.V(6), isa.V(3), isa.S(13))
	for ky := 0; ky < cs.K; ky++ {
		for kx := 0; kx < cs.K; kx++ {
			// Base already shifted by -(k-1); tap (ky,kx) adds (k-1-ky, k-1-kx).
			off := int32(4 * ((cs.K-1-ky)*dyRS + cs.K - 1 - kx))
			woff := int32(4 * (ky*cs.K + kx))
			b.Load(isa.OpVLoad, isa.V(7), isa.V(6), off)
			b.Load(isa.OpSLoad, isa.S(15), isa.S(7), woff)
			b.Waitcnt(0)
			b.I(isa.OpVFFma, isa.V(5), isa.V(7), isa.S(15), isa.V(5))
		}
	}
	b.I(isa.OpSAdd, isa.S(7), isa.S(7), isa.Imm(int32(4*cs.CI*taps)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*dyCS)))
	b.I(isa.OpSAdd, isa.S(12), isa.S(12), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(12), isa.Imm(int32(cs.CO)))
	b.Br(isa.OpCBranchSCC1, "co")

	// Store: dX + (ci*dxCS + (yBase+P)*dxRS + P)*4 + vRowOff.
	b.I(isa.OpSMul, isa.S(14), isa.S(4), isa.Imm(int32(4*dxCS)))
	b.I(isa.OpSMul, isa.S(16), isa.S(6), isa.Imm(int32(4*dxRS)))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(16))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.Imm(int32(4*(dX.Pad*dxRS+dX.Pad))))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(10))
	b.I(isa.OpVAdd, isa.V(10), isa.V(4), isa.S(14))
	b.Store(isa.OpVStore, isa.V(10), isa.V(5), 0)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// convBwdDWProgram: weight gradient of a stride-1 convolution,
// dW[co][ci][ky][kx] = sum_b,oy,ox x[b][ci][oy+ky-pad][ox+kx-pad] * dY[b][co][oy][ox].
// One warp per (co, ci); each lane owns one kernel tap and accumulates the
// whole (b, oy, ox) sum in a register (unique writer, no atomics).
// Args: s8=x, s9=dY, s10=dW.
func convBwdDWProgram(cs ConvSpec, x, dY Tensor) *isa.Program {
	if cs.Stride != 1 {
		panic("dnn: convBwdDW requires stride 1")
	}
	oh, ow := cs.Out()
	taps := cs.K * cs.K
	inRS, inCS := x.rowStride(), x.chanStride()
	dyRS, dyCS := dY.rowStride(), dY.chanStride()
	batch := x.batch()

	b := isa.NewBuilder(fmt.Sprintf("conv_bwd_dw_ci%d_co%d_i%dx%d_k%d_p%d_b%d|x%dp%d_dy%dp%d",
		cs.CI, cs.CO, cs.IH, cs.IW, cs.K, cs.Pad, batch, inRS, x.Pad, dyRS, dY.Pad))
	// Warp s2 = co*CI + ci; lane = tap.
	b.I(isa.OpSDiv, isa.S(4), isa.S(2), isa.Imm(int32(cs.CI))) // co
	b.I(isa.OpSMod, isa.S(5), isa.S(2), isa.Imm(int32(cs.CI))) // ci
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(0), isa.Imm(int32(taps)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	// Lane tap -> (ky, kx) -> X offset (ky*inRS + kx)*4.
	b.I(isa.OpVDiv, isa.V(1), isa.V(0), isa.Imm(int32(cs.K)))
	b.I(isa.OpVMod, isa.V(2), isa.V(0), isa.Imm(int32(cs.K)))
	b.I(isa.OpVMul, isa.V(3), isa.V(1), isa.Imm(int32(inRS)))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.V(2))
	b.I(isa.OpVLShl, isa.V(3), isa.V(3), isa.Imm(2))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	// X plane base for (b=0, ci) at logical (0,0) shifted by -pad plus halo:
	// x + ci*inCS*4 + (Pad_x-pad)*(inRS+1)*4.
	b.I(isa.OpSMul, isa.S(13), isa.S(5), isa.Imm(int32(4*inCS)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	if off := x.Pad - cs.Pad; off > 0 {
		b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*off*(inRS+1))))
	}
	// dY plane base for (b=0, co) at logical (0,0).
	b.I(isa.OpSMul, isa.S(14), isa.S(4), isa.Imm(int32(4*dyCS)))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(9))
	if dY.Pad > 0 {
		b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.Imm(int32(4*dY.Pad*(dyRS+1))))
	}
	b.I(isa.OpSMov, isa.S(16), isa.Imm(0)) // b counter
	b.Label("b")
	b.I(isa.OpSMov, isa.S(17), isa.Imm(0)) // oy counter
	b.I(isa.OpSMov, isa.S(18), isa.S(13))  // X row cursor
	b.I(isa.OpSMov, isa.S(19), isa.S(14))  // dY row cursor
	b.Label("oy")
	b.I(isa.OpVAdd, isa.V(6), isa.V(3), isa.S(18))
	for ox := 0; ox < ow; ox++ {
		b.Load(isa.OpSLoad, isa.S(20), isa.S(19), int32(4*ox))
		b.Load(isa.OpVLoad, isa.V(7), isa.V(6), int32(4*ox))
		b.Waitcnt(0)
		b.I(isa.OpVFFma, isa.V(5), isa.V(7), isa.S(20), isa.V(5))
	}
	b.I(isa.OpSAdd, isa.S(18), isa.S(18), isa.Imm(int32(4*inRS)))
	b.I(isa.OpSAdd, isa.S(19), isa.S(19), isa.Imm(int32(4*dyRS)))
	b.I(isa.OpSAdd, isa.S(17), isa.S(17), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(17), isa.Imm(int32(oh)))
	b.Br(isa.OpCBranchSCC1, "oy")
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*x.batchStride())))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.Imm(int32(4*dY.batchStride())))
	b.I(isa.OpSAdd, isa.S(16), isa.S(16), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(16), isa.Imm(int32(batch)))
	b.Br(isa.OpCBranchSCC1, "b")
	// dW[co][ci][tap] at dW + (s2*taps + tap)*4.
	b.I(isa.OpSMul, isa.S(21), isa.S(2), isa.Imm(int32(4*taps)))
	b.I(isa.OpSAdd, isa.S(21), isa.S(21), isa.S(10))
	b.I(isa.OpVLShl, isa.V(9), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.S(21))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// sgdProgram: w[i] = w[i] - lr*g[i] over a flat buffer of n floats.
// Args: s8=w, s9=g.
func sgdProgram(n int, lr float32) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("sgd_n%d_lr%v", n, lr))
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(n)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.I(isa.OpVAdd, isa.V(4), isa.V(2), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(7), isa.V(3), 0)
	b.Load(isa.OpVLoad, isa.V(8), isa.V(4), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(7), isa.V(8), isa.ImmF32(-lr), isa.V(7))
	b.Store(isa.OpVStore, isa.V(3), isa.V(7), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}
