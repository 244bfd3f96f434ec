package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

const (
	scWidth    = 512 // image width (power of two so x/y come from shifts)
	scMaskDim  = 5   // 5x5 convolution mask
	scMaskhalf = scMaskDim / 2
)

// scProgram computes a 5x5 convolution over a W×H single-channel image with
// clamp-to-edge addressing; one thread per output pixel. W, H are baked into
// the program as immediates (they are compile-time constants in the OpenCL
// original too). Args: s8=in, s9=mask, s10=out, s11=n.
func scProgram(w, h int) *isa.Program {
	lw := log2(w)
	b := isa.NewBuilder(fmt.Sprintf("sc_%dx%d", w, h))
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 11, 0, "done")
	b.I(isa.OpVAnd, isa.V(2), isa.V(1), isa.Imm(int32(w-1))) // x
	b.I(isa.OpVLShr, isa.V(3), isa.V(1), isa.Imm(int32(lw))) // y
	b.I(isa.OpVMov, isa.V(4), isa.ImmF32(0))                 // acc
	b.I(isa.OpSMov, isa.S(5), isa.Imm(0))                    // k
	b.I(isa.OpSMov, isa.S(14), isa.S(9))                     // &mask[k]
	b.Label("loop")
	b.I(isa.OpSDiv, isa.S(6), isa.S(5), isa.Imm(scMaskDim)) // ky
	b.I(isa.OpSMod, isa.S(7), isa.S(5), isa.Imm(scMaskDim)) // kx
	b.I(isa.OpSSub, isa.S(6), isa.S(6), isa.Imm(scMaskhalf))
	b.I(isa.OpSSub, isa.S(7), isa.S(7), isa.Imm(scMaskhalf))
	// iy = clamp(y+ky, 0, h-1); ix = clamp(x+kx, 0, w-1)
	b.I(isa.OpVAdd, isa.V(5), isa.V(3), isa.S(6))
	b.I(isa.OpVMax, isa.V(5), isa.V(5), isa.Imm(0))
	b.I(isa.OpVMin, isa.V(5), isa.V(5), isa.Imm(int32(h-1)))
	b.I(isa.OpVAdd, isa.V(6), isa.V(2), isa.S(7))
	b.I(isa.OpVMax, isa.V(6), isa.V(6), isa.Imm(0))
	b.I(isa.OpVMin, isa.V(6), isa.V(6), isa.Imm(int32(w-1)))
	// in[(iy<<lw)+ix]
	b.I(isa.OpVLShl, isa.V(7), isa.V(5), isa.Imm(int32(lw)))
	b.I(isa.OpVAdd, isa.V(7), isa.V(7), isa.V(6))
	b.I(isa.OpVLShl, isa.V(7), isa.V(7), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(7), isa.V(7), isa.S(8))
	b.Load(isa.OpSLoad, isa.S(13), isa.S(14), 0)
	b.Load(isa.OpVLoad, isa.V(8), isa.V(7), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(4), isa.V(8), isa.S(13), isa.V(4))
	b.I(isa.OpSAdd, isa.S(14), isa.S(14), isa.Imm(4))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(5), isa.Imm(scMaskDim*scMaskDim))
	b.Br(isa.OpCBranchSCC1, "loop")
	b.I(isa.OpVLShl, isa.V(9), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.S(10))
	b.Store(isa.OpVStore, isa.V(9), isa.V(4), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// BuildSC constructs the SimpleConvolution benchmark (AMD APP SDK) at the
// given problem size in warps. The image is scWidth wide; height grows with
// the problem size.
func BuildSC(warps int) (*App, error) {
	n := warps * kernel.WavefrontSize
	if n%scWidth != 0 {
		return nil, fmt.Errorf("sc: %d threads not divisible into rows of %d", n, scWidth)
	}
	h := n / scWidth
	m := mem.NewFlat()
	in := m.Alloc(uint64(4 * n))
	maskBuf := m.Alloc(4 * scMaskDim * scMaskDim)
	out := m.Alloc(uint64(4 * n))

	rng := NewRNG(0x5c)
	hostIn := make([]float32, n)
	for i := range hostIn {
		hostIn[i] = rng.Float32()
	}
	hostMask := make([]float32, scMaskDim*scMaskDim)
	for i := range hostMask {
		hostMask[i] = rng.Float32() - 0.5
	}
	m.WriteFloats(in, hostIn)
	m.WriteFloats(maskBuf, hostMask)

	l := &kernel.Launch{
		Name:          "sc",
		Program:       scProgram(scWidth, h),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args:          []uint32{uint32(in), uint32(maskBuf), uint32(out), uint32(n)},
	}
	app := &App{Name: "SC", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		clamp := func(v, lo, hi int) int {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		for i := 0; i < n; i += max(1, n/211) {
			x, y := i%scWidth, i/scWidth
			var want float32
			for k := 0; k < scMaskDim*scMaskDim; k++ {
				iy := clamp(y+k/scMaskDim-scMaskhalf, 0, h-1)
				ix := clamp(x+k%scMaskDim-scMaskhalf, 0, scWidth-1)
				want = hostIn[iy*scWidth+ix]*hostMask[k] + want
			}
			if got := m.ReadF32(out + uint64(4*i)); got != want {
				return fmt.Errorf("sc: out[%d] = %v, want %v", i, got, want)
			}
		}
		return nil
	}
	return app, nil
}
