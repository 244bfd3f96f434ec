package verify

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/sim/isa"
)

// softmaxReduceCase mirrors the structure of the dnn softmax / LayerNorm
// kernels: a two-warp workgroup computes two chained cross-warp LDS tree
// reductions (max, then sum) with a barrier per fold step and EXEC-masked
// tails (a non-power-of-two logical row inside a power-of-two thread
// group), then mixes the reduced values into per-warp private outputs and
// a commutative integer atomic. The committed serialization of this case
// (testdata/softmax-treereduce.case) rides the full regression battery.
func softmaxReduceCase() *Case {
	const (
		threads = 128 // 2 warps per group
		row     = 100 // logical row length; lanes >= row are masked
	)
	b := isa.NewBuilder("softmax-treereduce")
	b.SetLDS(threads * 4)
	// t = warpInGroup*64 + lane (v1); LDS byte address t*4 (v2).
	b.I(isa.OpSLShl, isa.S(4), isa.S(1), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	// x = t < row ? in[group*threads + t] : 0, like the softmax guarded load.
	b.I(isa.OpVMov, isa.V(3), isa.Imm(0))
	b.I(isa.OpSMul, isa.S(5), isa.S(0), isa.Imm(4*threads))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.S(8))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(row))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "noload")
	b.I(isa.OpVAdd, isa.V(4), isa.V(2), isa.S(5))
	b.Load(isa.OpVLoad, isa.V(3), isa.V(4), 0)
	b.Waitcnt(0)
	b.Label("noload")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	// Cross-warp max through LDS (barrier per fold, mask slot 1 scratch).
	b.Store(isa.OpLDSStore, isa.V(2), isa.V(3), 0)
	b.Barrier()
	treeReduce := func(op isa.Op) {
		for stride := threads / 2; stride >= 1; stride /= 2 {
			b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(int32(stride)))
			b.I(isa.OpSAndSaveExec, isa.Mask(1))
			b.Load(isa.OpLDSLoad, isa.V(6), isa.V(2), 0)
			b.Load(isa.OpLDSLoad, isa.V(7), isa.V(2), int32(4*stride))
			b.I(op, isa.V(6), isa.V(6), isa.V(7))
			b.Store(isa.OpLDSStore, isa.V(2), isa.V(6), 0)
			b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(1))
			b.Barrier()
		}
	}
	treeReduce(isa.OpVMax)
	b.I(isa.OpVMov, isa.V(8), isa.Imm(0))
	b.Load(isa.OpLDSLoad, isa.V(9), isa.V(8), 0) // reduced max
	b.Barrier()                                  // LDS reused below
	// Second pass: sum of (x - max) over the masked row.
	b.I(isa.OpVSub, isa.V(10), isa.V(3), isa.V(9))
	b.I(isa.OpVMov, isa.V(11), isa.Imm(0))
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(1), isa.Imm(row))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.I(isa.OpVMov, isa.V(11), isa.V(10))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.Store(isa.OpLDSStore, isa.V(2), isa.V(11), 0)
	b.Barrier()
	treeReduce(isa.OpVAdd)
	b.Load(isa.OpLDSLoad, isa.V(12), isa.V(8), 0) // reduced sum
	// Commutative atomic: every lane folds the workgroup sum into
	// the shared segment, spread over its 4 words by lane index.
	b.I(isa.OpVAnd, isa.V(13), isa.V(1), isa.Imm(3))
	b.I(isa.OpVLShl, isa.V(13), isa.V(13), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(13), isa.V(13), isa.S(10))
	b.I(isa.OpVAtomicAdd, isa.Operand{}, isa.V(13), isa.V(12))
	b.Waitcnt(0)
	// Per-warp private output: lane's masked value mixed with the sum.
	b.I(isa.OpVAdd, isa.V(14), isa.V(11), isa.V(12))
	b.I(isa.OpSMul, isa.S(6), isa.S(2), isa.Imm(64*4))
	b.I(isa.OpSAdd, isa.S(6), isa.S(6), isa.S(9))
	b.I(isa.OpVLShl, isa.V(15), isa.V(0), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(15), isa.V(15), isa.S(6))
	b.Store(isa.OpVStore, isa.V(15), isa.V(14), 0)
	b.End()
	p := b.MustBuild()
	return &Case{
		Name:            "softmax-treereduce",
		Seed:            41,
		NumWorkgroups:   2,
		WarpsPerGroup:   2,
		InWords:         256,
		OutWordsPerWarp: 64,
		AtomicWords:     4,
		LDSBytes:        threads * 4,
		Insts:           p.Insts,
	}
}

// TestSoftmaxReduceCase runs the handwritten cross-warp reduction case
// through the differential battery and pins the committed serialization so
// the testdata copy can never drift from this source.
func TestSoftmaxReduceCase(t *testing.T) {
	c := softmaxReduceCase()
	checkCase(t, c)

	path := filepath.Join("testdata", "softmax-treereduce.case")
	if os.Getenv("PHOTON_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(c.Format()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing committed case (regenerate with PHOTON_GOLDEN=1): %v", err)
	}
	if got := c.Format(); strings.TrimSpace(string(want)) != strings.TrimSpace(got) {
		t.Fatalf("committed %s is stale; expected:\n%s", path, got)
	}
}
