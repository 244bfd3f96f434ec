package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// mmTile is the square tile edge; a workgroup of 4 warps (256 threads)
// computes one 16x16 tile of C, staging A and B tiles in LDS between
// barriers — the classic tiled GEMM kernel.
const mmTile = 16

// mmProgram computes C = A*B for N×N float matrices. N is baked in (the
// OpenCL kernel receives it as a compile-time define in the APP SDK too).
// Args: s8=A, s9=B, s10=C.
func mmProgram(n int) *isa.Program {
	ln := log2(n)
	nt := n / mmTile // tiles per edge, power of two
	lnt := log2(nt)
	b := isa.NewBuilder(fmt.Sprintf("mm_%d", n))
	b.SetLDS(2 * mmTile * mmTile * 4) // A tile then B tile

	// Thread coordinates within the 16x16 tile.
	b.I(isa.OpSLShl, isa.S(4), isa.S(1), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))          // t = warpInWG*64+lane
	b.I(isa.OpVAnd, isa.V(2), isa.V(1), isa.Imm(mmTile-1)) // tx
	b.I(isa.OpVLShr, isa.V(3), isa.V(1), isa.Imm(4))       // ty
	// Workgroup's tile coordinates.
	b.I(isa.OpSAnd, isa.S(5), isa.S(0), isa.Imm(int32(nt-1))) // bx
	b.I(isa.OpSLShr, isa.S(6), isa.S(0), isa.Imm(int32(lnt))) // by
	b.I(isa.OpSLShl, isa.S(7), isa.S(6), isa.Imm(4))          // by*16
	b.I(isa.OpVAdd, isa.V(4), isa.V(3), isa.S(7))             // row
	b.I(isa.OpSLShl, isa.S(12), isa.S(5), isa.Imm(4))         // bx*16
	b.I(isa.OpVAdd, isa.V(5), isa.V(2), isa.S(12))            // col
	b.I(isa.OpVMov, isa.V(6), isa.ImmF32(0))                  // acc
	b.I(isa.OpVLShl, isa.V(11), isa.V(1), isa.Imm(2))         // LDS addr of this thread
	b.I(isa.OpSMov, isa.S(13), isa.Imm(0))                    // tile index

	b.Label("tile")
	// Load A[row][tbase+tx] and B[tbase+ty][col] into LDS.
	b.I(isa.OpSLShl, isa.S(14), isa.S(13), isa.Imm(4)) // tbase = tile*16
	b.I(isa.OpVLShl, isa.V(7), isa.V(4), isa.Imm(int32(ln)))
	b.I(isa.OpVAdd, isa.V(7), isa.V(7), isa.S(14))
	b.I(isa.OpVAdd, isa.V(7), isa.V(7), isa.V(2))
	b.I(isa.OpVLShl, isa.V(7), isa.V(7), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(7), isa.V(7), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(8), isa.V(7), 0)
	b.I(isa.OpVAdd, isa.V(9), isa.V(3), isa.S(14))
	b.I(isa.OpVLShl, isa.V(9), isa.V(9), isa.Imm(int32(ln)))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.V(5))
	b.I(isa.OpVLShl, isa.V(9), isa.V(9), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(9), isa.V(9), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(10), isa.V(9), 0)
	b.Waitcnt(0)
	b.Store(isa.OpLDSStore, isa.V(11), isa.V(8), 0)
	b.Store(isa.OpLDSStore, isa.V(11), isa.V(10), mmTile*mmTile*4)
	b.Barrier()
	// Inner product over the staged tiles, fully unrolled.
	// aAddr = (ty*16 + k)*4, bAddr = (k*16 + tx)*4 + 1024.
	b.I(isa.OpVLShl, isa.V(12), isa.V(3), isa.Imm(6)) // ty*16*4
	b.I(isa.OpVLShl, isa.V(14), isa.V(2), isa.Imm(2)) // tx*4
	for k := 0; k < mmTile; k++ {
		b.Load(isa.OpLDSLoad, isa.V(13), isa.V(12), int32(4*k))
		b.Load(isa.OpLDSLoad, isa.V(15), isa.V(14), int32(mmTile*mmTile*4+4*mmTile*k))
		b.I(isa.OpVFFma, isa.V(6), isa.V(13), isa.V(15), isa.V(6))
	}
	b.Barrier()
	b.I(isa.OpSAdd, isa.S(13), isa.S(13), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(13), isa.Imm(int32(nt)))
	b.Br(isa.OpCBranchSCC1, "tile")

	// C[row][col] = acc.
	b.I(isa.OpVLShl, isa.V(16), isa.V(4), isa.Imm(int32(ln)))
	b.I(isa.OpVAdd, isa.V(16), isa.V(16), isa.V(5))
	b.I(isa.OpVLShl, isa.V(16), isa.V(16), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(16), isa.V(16), isa.S(10))
	b.Store(isa.OpVStore, isa.V(16), isa.V(6), 0)
	b.End()
	return b.MustBuild()
}

// mmSizeForWarps converts the paper's warp-count problem size to the matrix
// edge N: warps = N*N/64, with N/16 a power of two.
func mmSizeForWarps(warps int) (int, error) {
	for n := 64; n <= 1<<14; n *= 2 {
		if n*n/kernel.WavefrontSize == warps {
			return n, nil
		}
	}
	return 0, fmt.Errorf("mm: no power-of-two matrix edge yields %d warps (use 64, 256, 1024, 4096, ...)", warps)
}

// BuildMM constructs the tiled matrix-multiplication benchmark (AMD APP SDK)
// at the given problem size in warps.
func BuildMM(warps int) (*App, error) {
	n, err := mmSizeForWarps(warps)
	if err != nil {
		return nil, err
	}
	m := mem.NewFlat()
	words := uint64(4 * n * n)
	a := m.Alloc(words)
	bb := m.Alloc(words)
	c := m.Alloc(words)
	// A and B interleave: element i of A is draw 2i, of B draw 2i+1.
	for k, buf := range []uint64{a, bb} {
		rng := rngAt(mmSeed, k)
		m.FillFloats(buf, n*n, func(c []float32) {
			for i := range c {
				c[i] = rng.Float32() - 0.5
				rng.Skip(1)
			}
		})
	}

	l := &kernel.Launch{
		Name:          "mm",
		Program:       mmProgram(n),
		Memory:        m,
		NumWorkgroups: (n / mmTile) * (n / mmTile),
		WarpsPerGroup: mmTile * mmTile / kernel.WavefrontSize,
		Args:          []uint32{uint32(a), uint32(bb), uint32(c)},
	}
	app := &App{Name: "MM", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		// Verify a handful of elements, replaying the kernel's tile-ordered
		// float32 accumulation.
		for _, idx := range []int{0, 1, n - 1, n * n / 2, n*n - 1} {
			row, col := idx/n, idx%n
			var want float32
			for k := 0; k < n; k++ {
				want = mmElem(2*(row*n+k))*mmElem(2*(k*n+col)+1) + want
			}
			got := m.ReadF32(c + uint64(4*idx))
			if !approxEqual(got, want, 1e-3) {
				return fmt.Errorf("mm: C[%d][%d] = %v, want %v", row, col, got, want)
			}
		}
		return nil
	}
	return app, nil
}

const mmSeed = 0x3434

// mmElem regenerates draw i of MM's inputs.
func mmElem(i int) float32 { return rngAt(mmSeed, i).Float32() - 0.5 }

func approxEqual(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m < 1 {
		m = 1
	}
	return d <= tol*m
}
