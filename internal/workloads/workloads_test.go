package workloads

import (
	"crypto/aes"
	"encoding/binary"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
)

// runFunctional executes every launch of the app with the functional
// emulator and then runs its correctness check.
func runFunctional(t *testing.T, app *App) {
	t.Helper()
	for _, l := range app.Launches {
		if _, err := emu.RunKernelFunctional(l); err != nil {
			t.Fatalf("%s/%s: %v", app.Name, l.Name, err)
		}
	}
	if app.Check == nil {
		t.Fatalf("%s: no correctness check", app.Name)
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReLUFunctional(t *testing.T) {
	app, err := BuildReLU(64)
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

func TestFIRFunctional(t *testing.T) {
	app, err := BuildFIR(32)
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

func TestSCFunctional(t *testing.T) {
	app, err := BuildSC(64) // 4096 threads = 8 rows of 512
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

func TestMMFunctional(t *testing.T) {
	app, err := BuildMM(64) // N=64
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

func TestMMRejectsBadSize(t *testing.T) {
	if _, err := BuildMM(100); err == nil {
		t.Fatal("MM accepted a size with no power-of-two edge")
	}
}

func TestAESFunctional(t *testing.T) {
	app, err := BuildAES(2)
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

// TestAESReferenceMatchesStdlib proves the host reference (and therefore the
// kernel, which app.Check compares against it) implements real AES-256 by
// checking it against crypto/aes.
func TestAESReferenceMatchesStdlib(t *testing.T) {
	rng := NewRNG(42)
	var key [32]byte
	for i := range key {
		key[i] = byte(rng.Uint64())
	}
	rk := aesExpandKey256(key)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		var pt [16]byte
		for i := range pt {
			pt[i] = byte(rng.Uint64())
		}
		var want [16]byte
		block.Encrypt(want[:], pt[:])

		var ptWords, wantWords [4]uint32
		for i := 0; i < 4; i++ {
			ptWords[i] = binary.BigEndian.Uint32(pt[4*i:])
			wantWords[i] = binary.BigEndian.Uint32(want[4*i:])
		}
		if got := aesEncryptBlockRef(rk, ptWords); got != wantWords {
			t.Fatalf("trial %d: aesEncryptBlockRef = %#x, want %#x", trial, got, wantWords)
		}
	}
}

func TestSPMVFunctional(t *testing.T) {
	app, err := BuildSPMV(16)
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

func TestPageRankFunctional(t *testing.T) {
	app, err := BuildPageRank(16 * 64)
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
	if len(app.Launches) != 2*prIterations {
		t.Fatalf("launches = %d, want %d", len(app.Launches), 2*prIterations)
	}
}

func TestPageRankRejectsUnalignedNodes(t *testing.T) {
	if _, err := BuildPageRank(100); err == nil {
		t.Fatal("unaligned node count accepted")
	}
}

// TestBenchmarksUnderDetailedTiming runs every Table 2 benchmark at a small
// size through the full detailed machine and re-checks functional
// correctness — timing-interleaved execution must not change results.
func TestBenchmarksUnderDetailedTiming(t *testing.T) {
	smallSizes := map[string]int{
		"AES": 2, "FIR": 16, "SC": 16, "MM": 64, "ReLU": 32, "SPMV": 8,
	}
	g := gpu.New(gpu.R9Nano())
	for _, spec := range Table2() {
		spec := spec
		t.Run(spec.Abbr, func(t *testing.T) {
			app, err := spec.Build(smallSizes[spec.Abbr])
			if err != nil {
				t.Fatal(err)
			}
			runner := gpu.FullRunner{}
			for _, l := range app.Launches {
				res, err := gpu.RunKernel(runner, g, l)
				if err != nil {
					t.Fatal(err)
				}
				if res.SimTime <= 0 || res.Insts == 0 {
					t.Fatalf("%s: degenerate result %+v", l.Name, res)
				}
			}
			if err := app.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTable2Registry(t *testing.T) {
	specs := Table2()
	if len(specs) != 6 {
		t.Fatalf("Table2 has %d entries, want 6", len(specs))
	}
	for _, s := range specs {
		if len(s.Sizes) == 0 || s.Build == nil || s.Suite == "" {
			t.Errorf("incomplete spec %+v", s.Abbr)
		}
	}
	if _, err := FindSpec("MM"); err != nil {
		t.Error(err)
	}
	if _, err := FindSpec("nope"); err == nil {
		t.Error("FindSpec accepted unknown benchmark")
	}
}

func TestCSRShape(t *testing.T) {
	c := makeCSR(1000, 1000, 7)
	if int(c.rowPtr[1000]) != len(c.colIdx) || len(c.colIdx) != len(c.values) {
		t.Fatal("CSR arrays inconsistent")
	}
	// Skewed distribution: mean below 16 but max above 32.
	mean := float64(len(c.colIdx)) / 1000
	if mean < 1 || mean > 24 {
		t.Fatalf("mean row length %v out of expected band", mean)
	}
	if c.maxilen <= 32 {
		t.Fatalf("max row length %d; want a long tail > 32", c.maxilen)
	}
	for _, col := range c.colIdx {
		if int(col) >= 1000 {
			t.Fatal("column index out of range")
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a1, err := BuildSPMV(4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildSPMV(4)
	if err != nil {
		t.Fatal(err)
	}
	p1 := a1.Launches[0].Program
	p2 := a2.Launches[0].Program
	if p1.Fingerprint != p2.Fingerprint {
		t.Fatal("same benchmark built twice produced different programs")
	}
}

func TestAppWithBlockOptions(t *testing.T) {
	app, err := BuildPageRank(8 * 64)
	if err != nil {
		t.Fatal(err)
	}
	split := app.WithBlockOptions(isa.BlockOptions{SplitAtWaitcnt: true})
	if len(split.Launches) != len(app.Launches) {
		t.Fatal("launch count changed")
	}
	for i, l := range split.Launches {
		orig := app.Launches[i]
		if l.Program.NumBlocks() <= orig.Program.NumBlocks() {
			t.Fatalf("%s: split program has %d blocks, original %d",
				l.Name, l.Program.NumBlocks(), orig.Program.NumBlocks())
		}
		if l.Program.Fingerprint == orig.Program.Fingerprint {
			t.Fatal("fingerprints must differ")
		}
	}
	// Shared programs stay shared: the two pr_contrib launches alias one
	// recompiled program.
	if split.Launches[0].Program != split.Launches[2].Program {
		t.Fatal("recompiled programs not shared across identical launches")
	}
	// The split app still computes the right answer.
	for _, l := range split.Launches {
		if _, err := emu.RunKernelFunctional(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := split.Check(); err != nil {
		t.Fatal(err)
	}
}
