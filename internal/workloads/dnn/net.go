// Package dnn lowers convolutional neural networks (the paper's VGG-16/19
// and ResNet-18/34/50/101/152, batch size 1) to sequences of GPU kernel
// launches over the simulator's ISA: direct convolution (ReLU fused), max
// pooling, fully-connected layers, residual add+ReLU and global average
// pooling.
//
// Substitution note (documented in DESIGN.md): the paper runs 224×224
// inference on the real channel widths. To keep detailed simulation
// tractable we scale the spatial resolution to 64×64 and divide channel
// widths by 4 while keeping every layer, kernel shape, stride and the full
// depth of each network. The cross-kernel repetition structure — which is
// what kernel-sampling exploits — is exactly preserved.
package dnn

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/workloads"
)

// Scale controls the model reduction.
type Scale struct {
	// Input is the spatial edge of the (square) input image.
	Input int
	// ChannelDiv divides every layer's channel width.
	ChannelDiv int
}

// DefaultScale is the reduction used by the experiments.
func DefaultScale() Scale { return Scale{Input: 64, ChannelDiv: 4} }

// minScaledChannels is the floor ch applies after division. It exists so
// the CNN suite keeps useful lane occupancy at aggressive ChannelDiv
// settings, and it is part of the goldens' shape contract: the committed
// fig16/fig17 outputs were produced with exactly this mapping (see
// TestScaleChannelWidthsPinned). Ratio-sensitive shapes — a transformer's
// head_dim = d_model/heads — must NOT go through ch, because the floor
// silently distorts ratios once c/ChannelDiv < 8; they use ChExact.
const minScaledChannels = 8

// ch divides a channel width by ChannelDiv, flooring the result at
// minScaledChannels. Use only for CNN channel counts where a floor is an
// acceptable (and golden-pinned) approximation.
func (s Scale) ch(c int) int {
	v := c / s.ChannelDiv
	if v < minScaledChannels {
		v = minScaledChannels
	}
	return v
}

// ChExact divides c by ChannelDiv and errors unless the division is exact
// and positive — no silent flooring. Call sites with ratio constraints
// (transformer d_model and head widths) use this so a scale that would
// distort the shape is rejected instead of quietly clamped.
func (s Scale) ChExact(what string, c int) (int, error) {
	if s.ChannelDiv <= 0 {
		return 0, fmt.Errorf("dnn: %s: ChannelDiv %d must be positive", what, s.ChannelDiv)
	}
	if c%s.ChannelDiv != 0 || c/s.ChannelDiv == 0 {
		return 0, fmt.Errorf("dnn: %s: width %d does not divide exactly by ChannelDiv %d",
			what, c, s.ChannelDiv)
	}
	return c / s.ChannelDiv, nil
}

// Tensor is a NCHW activation buffer with a zero halo of Pad pixels on every
// spatial side; convolutions read the halo instead of bounds-checking. N is
// the batch size; the zero value means batch 1 (the pre-batching layout),
// and batch samples are laid out contiguously: sample stride = C channel
// planes.
type Tensor struct {
	Base    uint64
	N       int
	C, H, W int
	Pad     int
}

func (t Tensor) batch() int {
	if t.N <= 0 {
		return 1
	}
	return t.N
}

func (t Tensor) paddedH() int     { return t.H + 2*t.Pad }
func (t Tensor) paddedW() int     { return t.W + 2*t.Pad }
func (t Tensor) rowStride() int   { return t.paddedW() }
func (t Tensor) chanStride() int  { return t.paddedH() * t.paddedW() }
func (t Tensor) batchStride() int { return t.C * t.chanStride() }
func (t Tensor) words() int       { return t.batch() * t.batchStride() }

// elemAddr returns the byte address of logical element (c, y, x) of the
// first batch sample.
func (t Tensor) elemAddr(c, y, x int) uint64 {
	return t.Base + uint64(4*((c*t.paddedH()+y+t.Pad)*t.paddedW()+x+t.Pad))
}

// elemAddrN returns the byte address of element (b, c, y, x).
func (t Tensor) elemAddrN(b, c, y, x int) uint64 {
	return t.elemAddr(c, y, x) + uint64(4*b*t.batchStride())
}

// Mat is a dense row-major R×C float32 matrix with no padding — the layout
// the transformer kernels (GEMM, attention, LayerNorm) compute over.
type Mat struct {
	Base uint64
	R, C int
}

func (m Mat) words() int { return m.R * m.C }

// at returns the byte address of element (r, c).
func (m Mat) at(r, c int) uint64 { return m.Base + uint64(4*(r*m.C+c)) }

// Net accumulates layers into a workloads.App.
type Net struct {
	app   *workloads.App
	rng   *workloads.RNG
	progs map[string]*isa.Program
	// drawnAt is the generator as it stood before each weight buffer, each
	// InputBatch tensor and the training step's loss gradient, keyed by the
	// buffer's base, so a Check can regenerate the buffer's initial values
	// instead of reading back what a kernel may have overwritten.
	drawnAt map[uint64]workloads.RNG
	scratch [256]float32 // fill's chunk
}

// NewNet creates an empty network named name.
func NewNet(name string, seed uint64) *Net {
	return &Net{
		app:     &workloads.App{Name: name, Mem: mem.NewFlat()},
		rng:     workloads.NewRNG(seed),
		progs:   make(map[string]*isa.Program),
		drawnAt: make(map[uint64]workloads.RNG),
	}
}

// App finalizes and returns the application.
func (n *Net) App() *workloads.App { return n.app }

// Mem returns the network's memory image.
func (n *Net) Mem() *mem.Flat { return n.app.Mem }

// NewTensor allocates a zeroed batch-1 activation tensor.
func (n *Net) NewTensor(c, h, w, pad int) Tensor {
	return n.NewBatchTensor(1, c, h, w, pad)
}

// NewBatchTensor allocates a zeroed activation tensor for a batch of nb
// samples.
func (n *Net) NewBatchTensor(nb, c, h, w, pad int) Tensor {
	t := Tensor{N: nb, C: c, H: h, W: w, Pad: pad}
	t.Base = n.app.Mem.Alloc(uint64(4 * t.words()))
	return t
}

// Input allocates the network input and fills it with deterministic values.
func (n *Net) Input(c, h, w, pad int) Tensor {
	return n.InputBatch(1, c, h, w, pad)
}

// InputBatch allocates a batched network input with deterministic values.
func (n *Net) InputBatch(nb, c, h, w, pad int) Tensor {
	t := n.NewBatchTensor(nb, c, h, w, pad)
	n.drawnAt[t.Base] = *n.rng
	t.eachRow(func(i int) { n.fill(t.Base+uint64(4*i), t.W, inputOff, inputScale) })
	return t
}

// eachRow calls row with the word offset of each sample's, channel's and
// row's first logical element, in image order.
func (t Tensor) eachRow(row func(i int)) {
	for b := 0; b < t.batch(); b++ {
		for c := 0; c < t.C; c++ {
			for y := 0; y < t.H; y++ {
				row(b*t.batchStride() + c*t.chanStride() + (y+t.Pad)*t.rowStride() + t.Pad)
			}
		}
	}
}

// initialInput regenerates the input tensor t in its image layout, halo
// zero, as InputBatch stored it.
func (n *Net) initialInput(t Tensor) []float32 {
	r := n.drawnAt[t.Base]
	buf := make([]float32, t.words())
	t.eachRow(func(i int) { r.Float32s(buf[i:i+t.W], inputOff, inputScale) })
	return buf
}

// NewMat allocates a zeroed r×c matrix.
func (n *Net) NewMat(r, c int) Mat {
	m := Mat{R: r, C: c}
	m.Base = n.app.Mem.Alloc(uint64(4 * m.words()))
	return m
}

// InputMat allocates a matrix filled with deterministic values in [-1, 1).
func (n *Net) InputMat(r, c int) Mat {
	m := n.NewMat(r, c)
	n.fill(m.Base, m.words(), inputOff, inputScale)
	return m
}

// fill stores words values (x+off)*scale at base, x running over the
// network generator's next Float32 draws (workloads.RNG.Float32s), one
// scratch chunk at a time; the network keeps the chunk, so its many small
// fills allocate nothing.
func (n *Net) fill(base uint64, words int, off, scale float32) {
	for words > 0 {
		c := n.scratch[:min(words, len(n.scratch))]
		n.rng.Float32s(c, off, scale)
		n.app.Mem.WriteFloats(base, c)
		base += uint64(4 * len(c))
		words -= len(c)
	}
}

// Inputs hold draws x mapped to (x-0.5)*2, weight buffers to (x-0.5)*0.2.
const (
	inputOff, inputScale   = -0.5, 2
	weightOff, weightScale = -0.5, 0.2
)

// allocWeights fills a weight buffer with small deterministic values.
func (n *Net) allocWeights(words int) uint64 {
	base := n.app.Mem.Alloc(uint64(4 * words))
	n.drawnAt[base] = *n.rng
	n.fill(base, words, weightOff, weightScale)
	return base
}

// redraw regenerates the words values (x+off)*scale that one fill stored
// at base, from the generator state drawnAt recorded for base.
func (n *Net) redraw(base uint64, words int, off, scale float32) []float32 {
	r := n.drawnAt[base]
	w := make([]float32, words)
	r.Float32s(w, off, scale)
	return w
}

// program returns a cached program, building it on first use; layers with
// identical shapes share one program, which is what makes their kernels
// byte-identical (and their GPU BBVs equal).
func (n *Net) program(key string, build func() *isa.Program) *isa.Program {
	if p, ok := n.progs[key]; ok {
		return p
	}
	p := build()
	n.progs[key] = p
	return p
}

func (n *Net) addLaunch(name string, p *isa.Program, groups, wpg int, args []uint32) {
	n.app.Launches = append(n.app.Launches, &kernel.Launch{
		Name:          name,
		Program:       p,
		Memory:        n.app.Mem,
		NumWorkgroups: groups,
		WarpsPerGroup: wpg,
		Args:          args,
	})
}

func assertPow2(what string, v int) {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("dnn: %s = %d must be a power of two", what, v))
	}
}
