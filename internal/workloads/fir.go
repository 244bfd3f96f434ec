package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// firTaps is the filter order, matching Hetero-Mark's default of 16. The
// input is n+taps Float32 draws from firSeed mapped to [-1, 1) as ReLU's
// are, the coefficients the next taps draws.
const (
	firTaps = 16
	firSeed = 0xf12
)

// firProgram computes out[i] = sum_k coeff[k]*in[i+k] for i < n. The input
// buffer is n+taps long so the loop needs no bounds handling.
// Args: s8=in, s9=coeff, s10=out, s11=n, s12=taps.
func firProgram() *isa.Program {
	b := isa.NewBuilder("fir")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 11, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2)) // byte index of out[tid]
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))    // &in[tid]
	b.I(isa.OpVMov, isa.V(4), isa.ImmF32(0))         // acc
	b.I(isa.OpSMov, isa.S(5), isa.Imm(0))            // k
	b.I(isa.OpSMov, isa.S(6), isa.S(9))              // &coeff[k]
	b.Label("loop")
	b.Load(isa.OpSLoad, isa.S(7), isa.S(6), 0)
	b.Load(isa.OpVLoad, isa.V(5), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(4), isa.V(5), isa.S(7), isa.V(4))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.Imm(4))
	b.I(isa.OpSAdd, isa.S(6), isa.S(6), isa.Imm(4))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(5), isa.S(12))
	b.Br(isa.OpCBranchSCC1, "loop")
	b.I(isa.OpVAdd, isa.V(6), isa.V(2), isa.S(10))
	b.Store(isa.OpVStore, isa.V(6), isa.V(4), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// BuildFIR constructs the FIR benchmark (Hetero-Mark) at the given problem
// size in warps.
func BuildFIR(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("fir: warps must be positive")
	}
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	in := m.Alloc(uint64(4 * (n + firTaps)))
	coeff := m.Alloc(4 * firTaps)
	out := m.Alloc(uint64(4 * n))

	rng := NewRNG(firSeed)
	m.FillFloats(in, n+firTaps, func(c []float32) { rng.Float32s(c, -0.5, 2) })
	m.FillFloats(coeff, firTaps, func(c []float32) { rng.Float32s(c, 0, 1) })

	l := &kernel.Launch{
		Name:          "fir",
		Program:       firProgram(),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args:          []uint32{uint32(in), uint32(coeff), uint32(out), uint32(n), firTaps},
	}
	app := &App{Name: "FIR", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		// Spot-check a spread of outputs against the host reference,
		// reproducing the kernel's float32 accumulation order over inputs
		// regenerated from the seed.
		var co, win [firTaps]float32
		rngAt(firSeed, n+firTaps).Float32s(co[:], 0, 1)
		for i := 0; i < n; i += max(1, n/257) {
			rngAt(firSeed, i).Float32s(win[:], -0.5, 2)
			var want float32
			for k := 0; k < firTaps; k++ {
				want = win[k]*co[k] + want
			}
			if got := m.ReadF32(out + uint64(4*i)); got != want {
				return fmt.Errorf("fir: out[%d] = %v, want %v", i, got, want)
			}
		}
		return nil
	}
	return app, nil
}
