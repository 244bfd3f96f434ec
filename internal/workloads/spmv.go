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
	rowPtr []uint32
	colIdx []uint32
	values []float32
}

// csrGen draws a synthetic sparse matrix row by row: each row's length,
// then its entries, each a column index and a value.
type csrGen struct {
	rng  *RNG
	cols int
}

func newCSRGen(cols int, seed uint64) *csrGen { return &csrGen{rng: NewRNG(seed), cols: cols} }

// rowLen draws the next row's length. The mean row is 0.8*4.5 + 0.2*35.5 =
// 10.7 entries long.
func (g *csrGen) rowLen() int {
	if g.rng.Intn(100) < 80 {
		return 1 + g.rng.Intn(8) // short row
	}
	return 8 + g.rng.Intn(56) // long tail, up to 64
}

// row draws the next row and appends its entries to cols and vals.
func (g *csrGen) row(cols []uint32, vals []float32) ([]uint32, []float32) {
	for k := g.rowLen(); k > 0; k-- {
		cols = append(cols, uint32(g.rng.Intn(g.cols)))
		vals = append(vals, g.rng.Float32()-0.5)
	}
	return cols, vals
}

// skipRow draws the next row's length and skips its entries.
func (g *csrGen) skipRow() { g.rng.Skip(2 * g.rowLen()) }

// makeCSR generates the matrix on the host; a builder stores its arrays and
// drops it.
func makeCSR(rows, cols int, seed uint64) *csr {
	g := newCSRGen(cols, seed)
	// Size the entry arrays for the mean row once, so append rarely has to
	// grow and copy them.
	rowPtr := make([]uint32, rows+1)
	colIdx, values := make([]uint32, 0, 11*rows), make([]float32, 0, 11*rows)
	for r := 0; r < rows; r++ {
		colIdx, values = g.row(colIdx, values)
		rowPtr[r+1] = uint32(len(colIdx))
	}
	return &csr{rowPtr: rowPtr, colIdx: colIdx, values: values}
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

// spmvSeed seeds the matrix, spmvXSeed the vector x.
const (
	spmvSeed  = 0x59317
	spmvXSeed = 0x77
)

// BuildSPMV constructs the SpMV benchmark (SHOC) at the given problem size
// in warps; the matrix has warps*64 rows and as many columns.
func BuildSPMV(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("spmv: warps must be positive")
	}
	m := mem.NewFlat()
	rows := warps * kernel.WavefrontSize
	c := makeCSR(rows, rows, spmvSeed)
	rowPtr := m.Alloc(uint64(4 * (rows + 1)))
	colIdx := m.Alloc(uint64(4 * len(c.colIdx)))
	vals := m.Alloc(uint64(4 * len(c.values)))
	x := m.Alloc(uint64(4 * rows))
	y := m.Alloc(uint64(4 * rows))
	m.WriteWords(rowPtr, c.rowPtr)
	m.WriteWords(colIdx, c.colIdx)
	m.WriteFloats(vals, c.values)
	rng := NewRNG(spmvXSeed)
	m.FillFloats(x, rows, func(c []float32) { rng.Float32s(c, 0, 1) })

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
		// Regenerate the matrix row by row and x element by element.
		g := newCSRGen(rows, spmvSeed)
		var cols []uint32
		var vals []float32
		for r := 0; r < rows; r++ {
			if r%max(1, rows/173) != 0 {
				g.skipRow()
				continue
			}
			cols, vals = g.row(cols[:0], vals[:0])
			var want float32
			for k, col := range cols {
				want = rngAt(spmvXSeed, int(col)).Float32()*vals[k] + want
			}
			if got := m.ReadF32(y + uint64(4*r)); got != want {
				return fmt.Errorf("spmv: y[%d] = %v, want %v", r, got, want)
			}
		}
		return nil
	}
	return app, nil
}
