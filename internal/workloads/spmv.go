package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// csr is a synthetic sparse matrix in compressed-sparse-row form. Row
// lengths follow a skewed distribution (many short rows, a tail of long
// ones), which is what makes SpMV the paper's canonical irregular workload:
// warps have divergent inner-loop trip counts and gather accesses.
type csr struct {
	rows    int
	cols    int
	rowPtr  []uint32
	colIdx  []uint32
	values  []float32
	maxilen int
}

func makeCSR(rows, cols int, seed uint64) *csr {
	rng := NewRNG(seed)
	// The mean row is 0.8*4.5 + 0.2*35.5 = 10.7 entries long: size the entry
	// arrays for that once, so append rarely has to grow and copy them.
	c := &csr{rows: rows, cols: cols, rowPtr: make([]uint32, rows+1),
		colIdx: make([]uint32, 0, 11*rows), values: make([]float32, 0, 11*rows)}
	for r := 0; r < rows; r++ {
		var rowLen int
		if rng.Intn(100) < 80 {
			rowLen = 1 + rng.Intn(8) // short row
		} else {
			rowLen = 8 + rng.Intn(56) // long tail, up to 64
		}
		if rowLen > c.maxilen {
			c.maxilen = rowLen
		}
		for k := 0; k < rowLen; k++ {
			c.colIdx = append(c.colIdx, uint32(rng.Intn(cols)))
			c.values = append(c.values, rng.Float32()-0.5)
		}
		c.rowPtr[r+1] = uint32(len(c.colIdx))
	}
	return c
}

// spmvProgram computes y = A*x over CSR, one thread per row, with a
// lane-divergent inner loop (the loop runs while any lane still has
// elements; finished lanes are masked off).
// Args: s8=rowPtr, s9=colIdx, s10=vals, s11=x, s12=y, s13=numRows.
func spmvProgram() *isa.Program {
	b := isa.NewBuilder("spmv")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 13, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0) // k = rowPtr[tid]
	b.Load(isa.OpVLoad, isa.V(5), isa.V(3), 4) // end = rowPtr[tid+1]
	b.Waitcnt(0)
	b.I(isa.OpVMov, isa.V(6), isa.ImmF32(0)) // acc
	b.Label("loop")
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(4), isa.V(5))
	b.I(isa.OpSAndSaveExec, isa.Mask(1))
	b.Br(isa.OpCBranchExecZ, "exit")
	b.I(isa.OpVLShl, isa.V(7), isa.V(4), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(8), isa.V(7), isa.S(9))
	b.Load(isa.OpVLoad, isa.V(9), isa.V(8), 0) // col
	b.Waitcnt(0)
	b.I(isa.OpVLShl, isa.V(10), isa.V(9), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(10), isa.V(10), isa.S(11))
	b.Load(isa.OpVLoad, isa.V(11), isa.V(10), 0) // x[col] gather
	b.I(isa.OpVAdd, isa.V(12), isa.V(7), isa.S(10))
	b.Load(isa.OpVLoad, isa.V(13), isa.V(12), 0) // val
	b.Waitcnt(0)
	b.I(isa.OpVFFma, isa.V(6), isa.V(11), isa.V(13), isa.V(6))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.Imm(1))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	b.Br(isa.OpSBranch, "loop")
	b.Label("exit")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
	b.I(isa.OpVAdd, isa.V(14), isa.V(2), isa.S(12))
	b.Store(isa.OpVStore, isa.V(14), isa.V(6), 0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// BuildSPMV constructs the SpMV benchmark (SHOC) at the given problem size
// in warps; the matrix has warps*64 rows and as many columns.
func BuildSPMV(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("spmv: warps must be positive")
	}
	m := mem.NewFlat()
	rows := warps * kernel.WavefrontSize
	c := makeCSR(rows, rows, 0x59317)

	rowPtr := m.Alloc(uint64(4 * (rows + 1)))
	colIdx := m.Alloc(uint64(4 * len(c.colIdx)))
	vals := m.Alloc(uint64(4 * len(c.values)))
	x := m.Alloc(uint64(4 * rows))
	y := m.Alloc(uint64(4 * rows))

	m.WriteWords(rowPtr, c.rowPtr)
	m.WriteWords(colIdx, c.colIdx)
	m.WriteFloats(vals, c.values)
	rng := NewRNG(0x77)
	hostX := make([]float32, rows)
	for i := range hostX {
		hostX[i] = rng.Float32()
	}
	m.WriteFloats(x, hostX)

	l := &kernel.Launch{
		Name:          "spmv",
		Program:       spmvProgram(),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args: []uint32{
			uint32(rowPtr), uint32(colIdx), uint32(vals),
			uint32(x), uint32(y), uint32(rows),
		},
	}
	app := &App{Name: "SPMV", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		for r := 0; r < rows; r += max(1, rows/173) {
			var want float32
			for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
				want = hostX[c.colIdx[k]]*c.values[k] + want
			}
			if got := m.ReadF32(y + uint64(4*r)); got != want {
				return fmt.Errorf("spmv: y[%d] = %v, want %v", r, got, want)
			}
		}
		return nil
	}
	return app, nil
}
