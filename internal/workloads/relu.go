package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// reluProgram computes out[i] = max(in[i], 0) for i < n.
// Args: s8=in, s9=out, s10=n.
func reluProgram() *isa.Program {
	b := isa.NewBuilder("relu")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 10, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVFMax, isa.V(5), isa.V(4), isa.ImmF32(0))
	b.I(isa.OpVAdd, isa.V(6), isa.V(2), isa.S(9))
	b.Store(isa.OpVStore, isa.V(6), isa.V(5), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// reluSeed seeds ReLU's input, successive Float32 draws x mapped to x*2-1
// in [-1, 1).
const reluSeed = 0x2e1a

// BuildReLU constructs the ReLU benchmark (DNNMark) at the given problem
// size in warps: a single elementwise kernel over warps*64 values.
func BuildReLU(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("relu: warps must be positive")
	}
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	in := m.Alloc(uint64(4 * n))
	out := m.Alloc(uint64(4 * n))
	rng := NewRNG(reluSeed)
	m.FillFloats(in, n, func(c []float32) { rng.Float32s(c, -0.5, 2) })

	l := &kernel.Launch{
		Name:          "relu",
		Program:       reluProgram(),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args:          []uint32{uint32(in), uint32(out), uint32(n)},
	}
	app := &App{Name: "ReLU", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		rng := NewRNG(reluSeed)
		var c [1 << 12]float32
		for i := 0; i < n; i += len(c) {
			x := c[:min(len(c), n-i)]
			rng.Float32s(x, -0.5, 2)
			for j, v := range x {
				if got, want := m.ReadF32(out+uint64(4*(i+j))), max(v, 0); got != want {
					return fmt.Errorf("relu: out[%d] = %v, want %v", i+j, got, want)
				}
			}
		}
		return nil
	}
	return app, nil
}
