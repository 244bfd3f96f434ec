package dnn

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/workloads"
)

// A complete training step — forward, backward, SGD update — for a small
// conv/conv/fc network at batch > 1. The backward kernels are the
// unique-writer generators in backward.go; the Check replays every kernel
// on the host in the exact float32 order and demands bit equality,
// including the in-place SGD weight updates (verified against weight
// snapshots taken at build time).

const trainLR = 0.01

// FCBackward appends the three FC gradient kernels: dX (input gradient),
// dW (weight gradient) and dB (bias gradient). x must be the layer's
// (unpadded) input and dY the output gradient, one row per sample.
func (n *Net) FCBackward(name string, x, dY Tensor, w uint64) (Tensor, uint64, uint64) {
	inN := x.C * x.H * x.W
	outN := dY.C
	batch := x.batch()
	dX := Tensor{N: batch, C: x.C, H: x.H, W: x.W}
	dX.Base = n.app.Mem.Alloc(uint64(4 * batch * inN))
	dW := n.app.Mem.Alloc(uint64(4 * inN * outN))
	dB := n.app.Mem.Alloc(uint64(4 * outN))

	p := n.program(fmt.Sprintf("fc_bwd_dx_%d_%d", inN, outN)+batchKey(batch),
		func() *isa.Program { return fcBwdDXProgram(inN, outN, batch) })
	warps := (inN + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name+".dx", p, batch*warps, 1, []uint32{uint32(dY.Base), uint32(w), uint32(dX.Base)})

	p = n.program(fmt.Sprintf("fc_bwd_dw_%d_%d_b%d", inN, outN, batch),
		func() *isa.Program { return fcBwdDWProgram(inN, outN, batch) })
	blocks := (outN + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name+".dw", p, inN*blocks, 1, []uint32{uint32(x.Base), uint32(dY.Base), uint32(dW)})

	p = n.program(fmt.Sprintf("fc_bwd_db_%d_b%d", outN, batch),
		func() *isa.Program { return fcBwdDBProgram(outN, batch) })
	n.addLaunch(name+".db", p, blocks, 1, []uint32{uint32(dY.Base), uint32(dB)})
	return dX, dW, dB
}

// ReLUBackward appends dPre = post > 0 ? dPost : 0 over matching shapes.
func (n *Net) ReLUBackward(name string, post, dPost Tensor, outPad int) Tensor {
	if post.C != dPost.C || post.H != dPost.H || post.W != dPost.W || post.batch() != dPost.batch() {
		panic(fmt.Sprintf("dnn: %s: relu backward shape mismatch", name))
	}
	dPre := n.NewBatchTensor(post.batch(), post.C, post.H, post.W, outPad)
	key := fmt.Sprintf("relu_bwd_c%d_%dx%d_pa%d_pb%d_po%d",
		post.C, post.H, post.W, post.Pad, dPost.Pad, outPad) + batchKey(post.batch())
	p := n.program(key, func() *isa.Program { return reluBwdProgram(post, dPost, dPre) })
	elems := post.C * post.H * post.W
	warps := (elems + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name, p, post.batch()*warps, 1,
		[]uint32{uint32(post.Base), uint32(dPost.Base), uint32(dPre.Base)})
	return dPre
}

// ConvBackwardData appends the input-gradient kernel of a stride-1 conv.
func (n *Net) ConvBackwardData(name string, cs ConvSpec, dY Tensor, w uint64, outPad int) Tensor {
	dX := n.NewBatchTensor(dY.batch(), cs.CI, cs.IH, cs.IW, outPad)
	key := fmt.Sprintf("conv_bwd_dx_%s|dy%dp%d_op%d", cs.key(), dY.rowStride(), dY.Pad, outPad) +
		batchKey(dY.batch())
	p := n.program(key, func() *isa.Program { return convBwdDXProgram(cs, dY, dX) })
	g := geometry(cs.IH, cs.IW)
	n.addLaunch(name, p, dY.batch()*cs.CI*g.warpsPerCh, 1,
		[]uint32{uint32(dY.Base), uint32(w), uint32(dX.Base)})
	return dX
}

// ConvBackwardWeights appends the weight-gradient kernel of a stride-1 conv.
func (n *Net) ConvBackwardWeights(name string, cs ConvSpec, x, dY Tensor) uint64 {
	dW := n.app.Mem.Alloc(uint64(4 * cs.CO * cs.CI * cs.K * cs.K))
	key := fmt.Sprintf("conv_bwd_dw_%s_b%d|x%dp%d_dy%dp%d",
		cs.key(), x.batch(), x.rowStride(), x.Pad, dY.rowStride(), dY.Pad)
	p := n.program(key, func() *isa.Program { return convBwdDWProgram(cs, x, dY) })
	n.addLaunch(name, p, cs.CO*cs.CI, 1, []uint32{uint32(x.Base), uint32(dY.Base), uint32(dW)})
	return dW
}

// SGD appends an in-place w -= lr*g update over nwords floats.
func (n *Net) SGD(name string, w, g uint64, nwords int, lr float32) {
	p := n.program(fmt.Sprintf("sgd_n%d_lr%v", nwords, lr),
		func() *isa.Program { return sgdProgram(nwords, lr) })
	warps := (nwords + kernel.WavefrontSize - 1) / kernel.WavefrontSize
	n.addLaunch(name, p, warps, 1, []uint32{uint32(w), uint32(g)})
}

// trainNet carries build-time snapshots for the training-step Check.
type trainNet struct {
	n      *Net
	snaps  map[uint64][]float32 // weight buffers, pre-update values
	checks []func(m *mem.Flat) error
}

// snapshot records the current contents of a weight buffer; SGD later
// mutates it in place, so checks of kernels that consumed the original
// values read the snapshot instead of memory.
func (t *trainNet) snapshot(base uint64, words int) []float32 {
	s := t.n.Mem().ReadFloats(base, words)
	t.snaps[base] = s
	return s
}

// hostGet reads element (b, c, y, x) of a tensor image, allowing indices
// inside the halo — exactly the reads the conv kernels perform.
func hostGet(buf []float32, t Tensor, b, c, y, x int) float32 {
	return buf[b*t.batchStride()+c*t.chanStride()+(y+t.Pad)*t.rowStride()+x+t.Pad]
}

// BuildTrainingStep constructs a conv/conv/fc forward + backward + SGD
// step at the given batch size. Spatial size is fixed at 8x8 so the whole
// step stays small enough for full-detailed simulation.
func BuildTrainingStep(batch int) (*workloads.App, error) {
	if batch < 1 {
		return nil, fmt.Errorf("dnn: training step batch %d must be positive", batch)
	}
	t := &trainNet{snaps: make(map[uint64][]float32)}
	t.n = NewNet(fmt.Sprintf("TrainStep-b%d", batch), 0x5d9+uint64(batch))
	n := t.n

	in := n.InputBatch(batch, 8, 8, 8, 1)
	t1 := n.Conv("conv1", in, 16, 3, 1, 1, 1, true)
	w1 := uint64(lastLaunch(n).Args[1])
	cs1 := ConvSpec{CI: in.C, CO: 16, IH: 8, IW: 8, K: 3, Stride: 1, Pad: 1, OutPad: 1, ReLU: true}
	t2 := n.Conv("conv2", t1, 16, 3, 1, 1, 0, true)
	w2 := uint64(lastLaunch(n).Args[1])
	cs2 := ConvSpec{CI: 16, CO: 16, IH: 8, IW: 8, K: 3, Stride: 1, Pad: 1, OutPad: 0, ReLU: true}
	y := n.FC("fc", t2, 64, false)
	wfc := uint64(lastLaunch(n).Args[1])
	bfc := uint64(lastLaunch(n).Args[3])

	// Loss gradient dY arrives from the host (a training framework would
	// compute it from labels); fill it deterministically.
	inN := t2.C * t2.H * t2.W
	dY := Tensor{N: batch, C: 64, H: 1, W: 1}
	dY.Base = n.Mem().Alloc(uint64(4 * batch * 64))
	for i := 0; i < batch*64; i++ {
		n.Mem().WriteF32(dY.Base+uint64(4*i), (n.rng.Float32()-0.5)*0.5)
	}

	// Backward.
	dXfc, dWfc, dBfc := n.FCBackward("fc.bwd", t2, dY, wfc)
	dT2 := n.ReLUBackward("conv2.bwd.relu", t2, dXfc, 1)
	dT1 := n.ConvBackwardData("conv2.bwd.dx", cs2, dT2, w2, 0)
	dW2 := n.ConvBackwardWeights("conv2.bwd.dw", cs2, t1, dT2)
	dP1 := n.ReLUBackward("conv1.bwd.relu", t1, dT1, 0)
	dW1 := n.ConvBackwardWeights("conv1.bwd.dw", cs1, in, dP1)

	// SGD updates (in place).
	w1s := t.snapshot(w1, cs1.CO*cs1.CI*9)
	w2s := t.snapshot(w2, cs2.CO*cs2.CI*9)
	wfcs := t.snapshot(wfc, inN*64)
	bfcs := t.snapshot(bfc, 64)
	n.SGD("sgd.w1", w1, dW1, cs1.CO*cs1.CI*9, trainLR)
	n.SGD("sgd.w2", w2, dW2, cs2.CO*cs2.CI*9, trainLR)
	n.SGD("sgd.wfc", wfc, dWfc, inN*64, trainLR)
	n.SGD("sgd.bfc", bfc, dBfc, 64, trainLR)

	app := n.App()
	app.Check = func() error {
		m := app.Mem
		if err := checkConvFwd(m, "conv1", cs1, in, w1s, t1); err != nil {
			return err
		}
		if err := checkConvFwd(m, "conv2", cs2, t1, w2s, t2); err != nil {
			return err
		}
		if err := checkFCFwd(m, "fc", t2, wfcs, bfcs, y); err != nil {
			return err
		}
		if err := checkFCBwd(m, "fc.bwd", t2, dY, wfcs, dXfc, dWfc, dBfc); err != nil {
			return err
		}
		if err := checkReluBwd(m, "conv2.bwd.relu", t2, dXfc, dT2); err != nil {
			return err
		}
		if err := checkConvBwdDX(m, "conv2.bwd.dx", cs2, dT2, w2s, dT1); err != nil {
			return err
		}
		if err := checkConvBwdDW(m, "conv2.bwd.dw", cs2, t1, dT2, dW2); err != nil {
			return err
		}
		if err := checkReluBwd(m, "conv1.bwd.relu", t1, dT1, dP1); err != nil {
			return err
		}
		if err := checkConvBwdDW(m, "conv1.bwd.dw", cs1, in, dP1, dW1); err != nil {
			return err
		}
		for _, u := range []struct {
			name string
			w, g uint64
			old  []float32
		}{{"sgd.w1", w1, dW1, w1s}, {"sgd.w2", w2, dW2, w2s},
			{"sgd.wfc", wfc, dWfc, wfcs}, {"sgd.bfc", bfc, dBfc, bfcs}} {
			if err := checkSGD(m, u.name, u.w, u.g, u.old); err != nil {
				return err
			}
		}
		return nil
	}
	return app, nil
}

func lastLaunch(n *Net) *kernel.Launch {
	return n.App().Launches[len(n.App().Launches)-1]
}

func checkConvFwd(m *mem.Flat, name string, cs ConvSpec, in Tensor, w []float32, out Tensor) error {
	xb := m.ReadFloats(in.Base, in.words())
	ob := m.ReadFloats(out.Base, out.words())
	oh, ow := cs.Out()
	taps := cs.K * cs.K
	for b := 0; b < in.batch(); b++ {
		for co := 0; co < cs.CO; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ci := 0; ci < cs.CI; ci++ {
						for ky := 0; ky < cs.K; ky++ {
							for kx := 0; kx < cs.K; kx++ {
								xv := hostGet(xb, in, b, ci, oy*cs.Stride+ky-cs.Pad, ox*cs.Stride+kx-cs.Pad)
								acc = xv*w[(co*cs.CI+ci)*taps+ky*cs.K+kx] + acc
							}
						}
					}
					if cs.ReLU {
						acc = f32max(acc, 0)
					}
					got := hostGet(ob, out, b, co, oy, ox)
					if got != acc {
						return mismatch(name, ((b*cs.CO+co)*oh+oy)*ow+ox, got, acc)
					}
				}
			}
		}
	}
	return nil
}

func checkFCFwd(m *mem.Flat, name string, in Tensor, w, bias []float32, out Tensor) error {
	inN := in.C * in.H * in.W
	outN := out.C
	xb := m.ReadFloats(in.Base, in.batch()*inN)
	ob := m.ReadFloats(out.Base, out.batch()*outN)
	for b := 0; b < in.batch(); b++ {
		for o := 0; o < outN; o++ {
			var acc float32
			for i := 0; i < inN; i++ {
				acc = w[i*outN+o]*xb[b*inN+i] + acc
			}
			acc = acc + bias[o]
			if got := ob[b*outN+o]; got != acc {
				return mismatch(name, b*outN+o, got, acc)
			}
		}
	}
	return nil
}

func checkFCBwd(m *mem.Flat, name string, x, dY Tensor, w []float32, dX Tensor, dW, dB uint64) error {
	inN := x.C * x.H * x.W
	outN := dY.C
	batch := x.batch()
	xb := m.ReadFloats(x.Base, batch*inN)
	dyb := m.ReadFloats(dY.Base, batch*outN)
	dxb := m.ReadFloats(dX.Base, batch*inN)
	dwb := m.ReadFloats(dW, inN*outN)
	dbb := m.ReadFloats(dB, outN)
	for b := 0; b < batch; b++ {
		for i := 0; i < inN; i++ {
			var acc float32
			for o := 0; o < outN; o++ {
				acc = w[i*outN+o]*dyb[b*outN+o] + acc
			}
			if got := dxb[b*inN+i]; got != acc {
				return mismatch(name+".dx", b*inN+i, got, acc)
			}
		}
	}
	for i := 0; i < inN; i++ {
		for o := 0; o < outN; o++ {
			var acc float32
			for b := 0; b < batch; b++ {
				acc = dyb[b*outN+o]*xb[b*inN+i] + acc
			}
			if got := dwb[i*outN+o]; got != acc {
				return mismatch(name+".dw", i*outN+o, got, acc)
			}
		}
	}
	for o := 0; o < outN; o++ {
		var acc float32
		for b := 0; b < batch; b++ {
			acc = acc + dyb[b*outN+o]
		}
		if got := dbb[o]; got != acc {
			return mismatch(name+".db", o, got, acc)
		}
	}
	return nil
}

func checkReluBwd(m *mem.Flat, name string, post, dPost, dPre Tensor) error {
	pb := m.ReadFloats(post.Base, post.words())
	db := m.ReadFloats(dPost.Base, dPost.words())
	ob := m.ReadFloats(dPre.Base, dPre.words())
	for b := 0; b < post.batch(); b++ {
		for c := 0; c < post.C; c++ {
			for y := 0; y < post.H; y++ {
				for x := 0; x < post.W; x++ {
					var want float32
					if hostGet(pb, post, b, c, y, x) > 0 {
						want = hostGet(db, dPost, b, c, y, x)
					}
					got := hostGet(ob, dPre, b, c, y, x)
					if got != want {
						return mismatch(name, ((b*post.C+c)*post.H+y)*post.W+x, got, want)
					}
				}
			}
		}
	}
	return nil
}

func checkConvBwdDX(m *mem.Flat, name string, cs ConvSpec, dY Tensor, w []float32, dX Tensor) error {
	dyb := m.ReadFloats(dY.Base, dY.words())
	dxb := m.ReadFloats(dX.Base, dX.words())
	taps := cs.K * cs.K
	for b := 0; b < dY.batch(); b++ {
		for ci := 0; ci < cs.CI; ci++ {
			for y := 0; y < cs.IH; y++ {
				for x := 0; x < cs.IW; x++ {
					var acc float32
					for co := 0; co < cs.CO; co++ {
						for ky := 0; ky < cs.K; ky++ {
							for kx := 0; kx < cs.K; kx++ {
								dv := hostGet(dyb, dY, b, co, y-ky+cs.Pad, x-kx+cs.Pad)
								acc = dv*w[(co*cs.CI+ci)*taps+ky*cs.K+kx] + acc
							}
						}
					}
					got := hostGet(dxb, dX, b, ci, y, x)
					if got != acc {
						return mismatch(name, ((b*cs.CI+ci)*cs.IH+y)*cs.IW+x, got, acc)
					}
				}
			}
		}
	}
	return nil
}

func checkConvBwdDW(m *mem.Flat, name string, cs ConvSpec, x, dY Tensor, dW uint64) error {
	xb := m.ReadFloats(x.Base, x.words())
	dyb := m.ReadFloats(dY.Base, dY.words())
	taps := cs.K * cs.K
	dwb := m.ReadFloats(dW, cs.CO*cs.CI*taps)
	oh, ow := cs.Out()
	for co := 0; co < cs.CO; co++ {
		for ci := 0; ci < cs.CI; ci++ {
			for ky := 0; ky < cs.K; ky++ {
				for kx := 0; kx < cs.K; kx++ {
					var acc float32
					for b := 0; b < x.batch(); b++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								xv := hostGet(xb, x, b, ci, oy+ky-cs.Pad, ox+kx-cs.Pad)
								acc = xv*hostGet(dyb, dY, b, co, oy, ox) + acc
							}
						}
					}
					idx := (co*cs.CI+ci)*taps + ky*cs.K + kx
					if got := dwb[idx]; got != acc {
						return mismatch(name, idx, got, acc)
					}
				}
			}
		}
	}
	return nil
}

func checkSGD(m *mem.Flat, name string, w, g uint64, old []float32) error {
	wb := m.ReadFloats(w, len(old))
	gb := m.ReadFloats(g, len(old))
	for i := range old {
		want := gb[i]*float32(-trainLR) + old[i]
		if wb[i] != want {
			return mismatch(name, i, wb[i], want)
		}
	}
	return nil
}
