package dnn

import (
	"fmt"
	"math"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

func log2(n int) int {
	assertPow2("log2 argument", n)
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// warpGeometry describes how output pixels map onto a warp: each warp covers
// rowsPerWarp output rows of one channel (lane -> (dy, ox)), so narrow deep
// layers still fill lanes.
type warpGeometry struct {
	OW, OH      int
	rowsPerWarp int
	warpsPerCh  int
}

func geometry(oh, ow int) warpGeometry {
	assertPow2("output width", ow)
	assertPow2("output height", oh)
	if ow > kernel.WavefrontSize {
		panic(fmt.Sprintf("dnn: output width %d exceeds wavefront size", ow))
	}
	g := warpGeometry{OW: ow, OH: oh, rowsPerWarp: kernel.WavefrontSize / ow}
	g.warpsPerCh = (oh + g.rowsPerWarp - 1) / g.rowsPerWarp
	return g
}

// emitGeometry emits the channel/row-block decomposition and lane mask.
// Leaves: s4=channel, s6=oyBase, v1=dy, v2=ox; EXEC masked to oy<OH with the
// original mask saved in m0.
func emitGeometry(b *isa.Builder, g warpGeometry) {
	if g.warpsPerCh > 1 {
		b.I(isa.OpSDiv, isa.S(4), isa.S(2), isa.Imm(int32(g.warpsPerCh)))
		b.I(isa.OpSMod, isa.S(5), isa.S(2), isa.Imm(int32(g.warpsPerCh)))
	} else {
		b.I(isa.OpSMov, isa.S(4), isa.S(2))
		b.I(isa.OpSMov, isa.S(5), isa.Imm(0))
	}
	b.I(isa.OpSLShl, isa.S(6), isa.S(5), isa.Imm(int32(log2(g.rowsPerWarp))))
	b.I(isa.OpVLShr, isa.V(1), isa.V(0), isa.Imm(int32(log2(g.OW))))
	b.I(isa.OpVAnd, isa.V(2), isa.V(0), isa.Imm(int32(g.OW-1)))
	b.I(isa.OpVAdd, isa.V(8), isa.V(1), isa.S(6)) // oy
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(8), isa.Imm(int32(g.OH)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
}

// emitBatchSplit prepends the batch decomposition for batched grids: the
// global warp id s2 is split into a batch index and a within-batch warp id
// (written back to s2, so the batch-1 body that follows is unchanged), and
// each (argReg, batchStride) pair has its sample offset folded into the
// scalar base-address register. Emits nothing for batch 1, keeping batch-1
// programs byte-identical to the pre-batching ones.
func emitBatchSplit(b *isa.Builder, batch, warpsPerBatch int, offsets [][2]int) {
	if batch <= 1 {
		return
	}
	b.I(isa.OpSDiv, isa.S(17), isa.S(2), isa.Imm(int32(warpsPerBatch)))
	b.I(isa.OpSMod, isa.S(2), isa.S(2), isa.Imm(int32(warpsPerBatch)))
	for _, o := range offsets {
		argReg, stride := o[0], o[1]
		b.I(isa.OpSMul, isa.S(18), isa.S(17), isa.Imm(int32(4*stride)))
		b.I(isa.OpSAdd, isa.S(argReg), isa.S(argReg), isa.S(18))
	}
}

// batchKey tags a program-cache key with the batch size only when it
// changes the emitted code, so batch-1 keys stay identical to the
// pre-batching ones.
func batchKey(batch int) string {
	if batch <= 1 {
		return ""
	}
	return fmt.Sprintf("_b%d", batch)
}

// ConvSpec is a convolution layer shape.
type ConvSpec struct {
	CI, CO         int
	IH, IW         int
	K, Stride, Pad int
	OutPad         int
	ReLU           bool
}

// Out returns the output spatial edge sizes.
func (cs ConvSpec) Out() (oh, ow int) {
	oh = (cs.IH+2*cs.Pad-cs.K)/cs.Stride + 1
	ow = (cs.IW+2*cs.Pad-cs.K)/cs.Stride + 1
	return oh, ow
}

func (cs ConvSpec) key() string {
	return fmt.Sprintf("conv_ci%d_co%d_i%dx%d_k%d_s%d_p%d_op%d_r%v",
		cs.CI, cs.CO, cs.IH, cs.IW, cs.K, cs.Stride, cs.Pad, cs.OutPad, cs.ReLU)
}

// convProgram emits the direct-convolution kernel for the spec. The input
// tensor may carry more halo than the convolution needs (in.Pad >= cs.Pad);
// the surplus is folded into the scalar base address.
// Args: s8=in, s9=weights, s10=out.
func convProgram(cs ConvSpec, in, out Tensor) *isa.Program {
	oh, ow := cs.Out()
	g := geometry(oh, ow)
	taps := cs.K * cs.K
	extra := in.Pad - cs.Pad
	inRS, inCS := in.rowStride(), in.chanStride()
	outRS, outCS := out.rowStride(), out.chanStride()

	b := isa.NewBuilder(cs.key() + batchKey(in.batch()))
	emitBatchSplit(b, in.batch(), cs.CO*g.warpsPerCh,
		[][2]int{{8, in.batchStride()}, {10, out.batchStride()}})
	emitGeometry(b, g)
	// vRowOffIn = (dy*stride*inRS + ox*stride)*4 bytes
	b.I(isa.OpVMul, isa.V(3), isa.V(1), isa.Imm(int32(cs.Stride*inRS)))
	b.I(isa.OpVLShl, isa.V(9), isa.V(2), isa.Imm(int32(log2(cs.Stride))))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.V(9))
	b.I(isa.OpVLShl, isa.V(3), isa.V(3), isa.Imm(2))
	// vRowOffOut = (dy*outRS + ox)*4 bytes
	b.I(isa.OpVMul, isa.V(4), isa.V(1), isa.Imm(int32(outRS)))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.V(2))
	b.I(isa.OpVLShl, isa.V(4), isa.V(4), isa.Imm(2))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0)) // acc
	// Weight base for this channel: s7 = weights + co*CI*taps*4.
	b.I(isa.OpSMul, isa.S(7), isa.S(4), isa.Imm(int32(cs.CI*taps*4)))
	b.I(isa.OpSAdd, isa.S(7), isa.S(7), isa.S(9))
	// Input scalar base for ci=0: s13 = in + oyBase*stride*inRS*4, plus the
	// surplus-halo offset when the input is padded wider than the kernel.
	b.I(isa.OpSMul, isa.S(13), isa.S(6), isa.Imm(int32(cs.Stride*inRS*4)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	if extra > 0 {
		b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*extra*(inRS+1))))
	}
	b.I(isa.OpSMov, isa.S(12), isa.Imm(0)) // ci

	b.Label("ci")
	b.I(isa.OpVAdd, isa.V(6), isa.V(3), isa.S(13))
	for ky := 0; ky < cs.K; ky++ {
		for kx := 0; kx < cs.K; kx++ {
			off := int32(4 * (ky*inRS + kx))
			woff := int32(4 * (ky*cs.K + kx))
			b.Load(isa.OpVLoad, isa.V(7), isa.V(6), off)
			b.Load(isa.OpSLoad, isa.S(15), isa.S(7), woff)
			b.Waitcnt(0)
			b.I(isa.OpVFFma, isa.V(5), isa.V(7), isa.S(15), isa.V(5))
		}
	}
	b.I(isa.OpSAdd, isa.S(7), isa.S(7), isa.Imm(int32(4*taps)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*inCS)))
	b.I(isa.OpSAdd, isa.S(12), isa.S(12), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(12), isa.Imm(int32(cs.CI)))
	b.Br(isa.OpCBranchSCC1, "ci")

	if cs.ReLU {
		b.I(isa.OpVFMax, isa.V(5), isa.V(5), isa.ImmF32(0))
	}
	// Store: out + (co*outCS + (oyBase+P)*outRS + P)*4 + vRowOffOut.
	b.I(isa.OpSMul, isa.S(14), isa.S(4), isa.Imm(int32(4*outCS)))
	b.I(isa.OpSMul, isa.S(16), isa.S(6), isa.Imm(int32(4*outRS)))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(16))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.Imm(int32(4*(out.Pad*outRS+out.Pad))))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(10))
	b.I(isa.OpVAdd, isa.V(10), isa.V(4), isa.S(14))
	b.Store(isa.OpVStore, isa.V(10), isa.V(5), 0)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// Conv appends a convolution (+ optional fused ReLU) layer.
func (n *Net) Conv(name string, in Tensor, co, k, stride, pad, outPad int, relu bool) Tensor {
	if in.Pad < pad {
		panic(fmt.Sprintf("dnn: %s: input pad %d < conv pad %d", name, in.Pad, pad))
	}
	cs := ConvSpec{CI: in.C, CO: co, IH: in.H, IW: in.W, K: k, Stride: stride,
		Pad: pad, OutPad: outPad, ReLU: relu}
	oh, ow := cs.Out()
	out := n.NewBatchTensor(in.batch(), co, oh, ow, outPad)
	weights := n.allocWeights(co * in.C * k * k)
	p := n.program(cs.key()+inOutKey(in, out)+batchKey(in.batch()),
		func() *isa.Program { return convProgram(cs, in, out) })
	g := geometry(oh, ow)
	n.addLaunch(name, p, in.batch()*co*g.warpsPerCh, 1,
		[]uint32{uint32(in.Base), uint32(weights), uint32(out.Base)})
	return out
}

// inOutKey distinguishes programs whose immediates depend on tensor strides.
func inOutKey(in, out Tensor) string {
	return fmt.Sprintf("|in%dp%d_out%dp%d", in.rowStride(), in.Pad, out.rowStride(), out.Pad)
}

// poolProgram emits a max-pool kernel. Args: s8=in, s9=out.
func poolProgram(c, ih, iw, k, stride, pad int, in, out Tensor) *isa.Program {
	oh := (ih+2*pad-k)/stride + 1
	ow := (iw+2*pad-k)/stride + 1
	g := geometry(oh, ow)
	extra := in.Pad - pad
	inRS, inCS := in.rowStride(), in.chanStride()
	outRS, outCS := out.rowStride(), out.chanStride()
	b := isa.NewBuilder(fmt.Sprintf("pool_c%d_i%dx%d_k%d_s%d_p%d", c, ih, iw, k, stride, pad) + batchKey(in.batch()))
	emitBatchSplit(b, in.batch(), c*g.warpsPerCh,
		[][2]int{{8, in.batchStride()}, {9, out.batchStride()}})
	emitGeometry(b, g)
	b.I(isa.OpVMul, isa.V(3), isa.V(1), isa.Imm(int32(stride*inRS)))
	b.I(isa.OpVLShl, isa.V(9), isa.V(2), isa.Imm(int32(log2(stride))))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.V(9))
	b.I(isa.OpVLShl, isa.V(3), isa.V(3), isa.Imm(2))
	b.I(isa.OpVMul, isa.V(4), isa.V(1), isa.Imm(int32(outRS)))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.V(2))
	b.I(isa.OpVLShl, isa.V(4), isa.V(4), isa.Imm(2))
	// Scalar base: in + (c*inCS + oyBase*stride*inRS)*4.
	b.I(isa.OpSMul, isa.S(7), isa.S(4), isa.Imm(int32(4*inCS)))
	b.I(isa.OpSMul, isa.S(13), isa.S(6), isa.Imm(int32(4*stride*inRS)))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(7))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.S(8))
	if extra > 0 {
		b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(int32(4*extra*(inRS+1))))
	}
	b.I(isa.OpVAdd, isa.V(6), isa.V(3), isa.S(13))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(float32(math.Inf(-1))))
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			b.Load(isa.OpVLoad, isa.V(7), isa.V(6), int32(4*(ky*inRS+kx)))
			b.Waitcnt(0)
			b.I(isa.OpVFMax, isa.V(5), isa.V(5), isa.V(7))
		}
	}
	b.I(isa.OpSMul, isa.S(14), isa.S(4), isa.Imm(int32(4*outCS)))
	b.I(isa.OpSMul, isa.S(16), isa.S(6), isa.Imm(int32(4*outRS)))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(16))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.Imm(int32(4*(out.Pad*outRS+out.Pad))))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.S(9))
	b.I(isa.OpVAdd, isa.V(10), isa.V(4), isa.S(14))
	b.Store(isa.OpVStore, isa.V(10), isa.V(5), 0)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// MaxPool appends a max-pooling layer.
func (n *Net) MaxPool(name string, in Tensor, k, stride, pad, outPad int) Tensor {
	if in.Pad < pad {
		panic(fmt.Sprintf("dnn: %s: input pad %d < pool pad %d", name, in.Pad, pad))
	}
	oh := (in.H+2*pad-k)/stride + 1
	ow := (in.W+2*pad-k)/stride + 1
	out := n.NewBatchTensor(in.batch(), in.C, oh, ow, outPad)
	key := fmt.Sprintf("pool_c%d_i%dx%d_k%d_s%d_p%d_op%d", in.C, in.H, in.W, k, stride, pad, outPad) +
		inOutKey(in, out) + batchKey(in.batch())
	p := n.program(key, func() *isa.Program {
		return poolProgram(in.C, in.H, in.W, k, stride, pad, in, out)
	})
	g := geometry(oh, ow)
	n.addLaunch(name, p, in.batch()*in.C*g.warpsPerCh, 1,
		[]uint32{uint32(in.Base), uint32(out.Base)})
	return out
}

// fcProgram: out[o] = act(sum_i wT[i][o]*x[i] + bias[o]) for o < OUT; with
// batch > 1 each sample's x/out are offset by inN/outN words (weights and
// bias shared). Args: s8=x, s9=wT, s10=out, s11=bias.
func fcProgram(inN, outN, batch int, relu bool) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("fc_%d_%d_r%v", inN, outN, relu) + batchKey(batch))
	warpsPerBatch := (outN + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	emitBatchSplit(b, batch, warpsPerBatch, [][2]int{{8, inN}, {10, outN}})
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // o
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(outN)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2)) // o*4
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(9))    // &wT[0][o]
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	b.I(isa.OpSMov, isa.S(12), isa.Imm(0))
	b.I(isa.OpSMov, isa.S(13), isa.S(8))
	b.Label("i")
	b.Load(isa.OpSLoad, isa.S(15), isa.S(13), 0)
	b.Load(isa.OpVLoad, isa.V(7), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(5), isa.V(7), isa.S(15), isa.V(5))
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(4))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(int32(4*outN)))
	b.I(isa.OpSAdd, isa.S(12), isa.S(12), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(12), isa.Imm(int32(inN)))
	b.Br(isa.OpCBranchSCC1, "i")
	b.I(isa.OpVAdd, isa.V(6), isa.V(2), isa.S(11))
	b.Load(isa.OpVLoad, isa.V(8), isa.V(6), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFAdd, isa.V(5), isa.V(5), isa.V(8))
	if relu {
		b.I(isa.OpVFMax, isa.V(5), isa.V(5), isa.ImmF32(0))
	}
	b.I(isa.OpVAdd, isa.V(9), isa.V(2), isa.S(10))
	b.Store(isa.OpVStore, isa.V(9), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// FC appends a fully-connected layer; the input tensor must be unpadded so
// its storage is a contiguous vector of C*H*W floats.
func (n *Net) FC(name string, in Tensor, outN int, relu bool) Tensor {
	if in.Pad != 0 {
		panic(fmt.Sprintf("dnn: %s: FC input must be unpadded", name))
	}
	inN := in.C * in.H * in.W
	batch := in.batch()
	out := Tensor{N: batch, C: outN, H: 1, W: 1}
	out.Base = n.app.Mem.Alloc(uint64(4 * batch * outN))
	weights := n.allocWeights(inN * outN)
	bias := n.allocWeights(outN)
	p := n.program(fmt.Sprintf("fc_%d_%d_r%v", inN, outN, relu)+batchKey(batch), func() *isa.Program {
		return fcProgram(inN, outN, batch, relu)
	})
	warps := (outN + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name, p, batch*warps, 1,
		[]uint32{uint32(in.Base), uint32(weights), uint32(out.Base), uint32(bias)})
	return out
}

// addProgram: out = relu(a + b), iterating logical elements of equal-shape
// tensors whose pads may differ. Args: s8=a, s9=b, s10=out.
func addProgram(a, b, out Tensor) *isa.Program {
	c, h, w := a.C, a.H, a.W
	n := c * h * w
	bb := isa.NewBuilder(fmt.Sprintf("addrelu_c%d_%dx%d", c, h, w))
	bb.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	bb.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	bb.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(n)))
	bb.I(isa.OpSAndSaveExec, isa.Mask(0))
	bb.Br(isa.OpCBranchExecZ, "done")
	// Decompose tid -> (c, y, x).
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
	addr(6, a, isa.S(8))
	addr(7, b, isa.S(9))
	addr(8, out, isa.S(10))
	bb.Load(isa.OpVLoad, isa.V(9), isa.V(6), 0)
	bb.Load(isa.OpVLoad, isa.V(10), isa.V(7), 0)
	bb.Waitcnt(0)
	bb.I(isa.OpVFAdd, isa.V(11), isa.V(9), isa.V(10))
	bb.I(isa.OpVFMax, isa.V(11), isa.V(11), isa.ImmF32(0))
	bb.Store(isa.OpVStore, isa.V(8), isa.V(11), 0)
	bb.Label("done")
	bb.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	bb.End()
	return bb.MustBuild()
}

// AddReLU appends a residual add + ReLU.
func (n *Net) AddReLU(name string, a, b Tensor, outPad int) Tensor {
	if a.C != b.C || a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("dnn: %s: shape mismatch (%d,%d,%d) vs (%d,%d,%d)",
			name, a.C, a.H, a.W, b.C, b.H, b.W))
	}
	out := n.NewTensor(a.C, a.H, a.W, outPad)
	key := fmt.Sprintf("add_c%d_%dx%d_pa%d_pb%d_po%d", a.C, a.H, a.W, a.Pad, b.Pad, outPad)
	p := n.program(key, func() *isa.Program { return addProgram(a, b, out) })
	warps := (a.C*a.H*a.W + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name, p, warps, 1,
		[]uint32{uint32(a.Base), uint32(b.Base), uint32(out.Base)})
	return out
}

// gapProgram: global average pool, one thread per channel.
// Args: s8=in, s9=out.
func gapProgram(in Tensor) *isa.Program {
	if in.H*in.W > 256 {
		panic("dnn: global average pool unrolls H*W; input too large")
	}
	b := isa.NewBuilder(fmt.Sprintf("gap_c%d_%dx%d_p%d", in.C, in.H, in.W, in.Pad))
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // c
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(in.C)))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "done")
	b.I(isa.OpVMul, isa.V(2), isa.V(1), isa.Imm(int32(4*in.chanStride())))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.S(8))
	b.I(isa.OpVMov, isa.V(5), isa.ImmF32(0))
	for y := 0; y < in.H; y++ {
		for x := 0; x < in.W; x++ {
			off := int32(4 * ((y+in.Pad)*in.rowStride() + x + in.Pad))
			b.Load(isa.OpVLoad, isa.V(7), isa.V(2), off)
			b.Waitcnt(0)
			b.I(isa.OpVFAdd, isa.V(5), isa.V(5), isa.V(7))
		}
	}
	b.I(isa.OpVFMul, isa.V(5), isa.V(5), isa.ImmF32(1/float32(in.H*in.W)))
	b.I(isa.OpVLShl, isa.V(3), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(9))
	b.Store(isa.OpVStore, isa.V(3), isa.V(5), 0)
	b.Label("done")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	return b.MustBuild()
}

// GlobalAvgPool appends a global average pooling layer producing an
// unpadded C×1×1 tensor.
func (n *Net) GlobalAvgPool(name string, in Tensor) Tensor {
	out := Tensor{C: in.C, H: 1, W: 1}
	out.Base = n.app.Mem.Alloc(uint64(4 * in.C))
	key := fmt.Sprintf("gap_c%d_%dx%d_p%d", in.C, in.H, in.W, in.Pad)
	p := n.program(key, func() *isa.Program { return gapProgram(in) })
	warps := (in.C + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name, p, warps, 1, []uint32{uint32(in.Base), uint32(out.Base)})
	return out
}
