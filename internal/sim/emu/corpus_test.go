package emu_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
	"photon/internal/verify"
)

func checkCase(t *testing.T, c *verify.Case) {
	t.Helper()
	emu.CheckLaunch(t, func() (*kernel.Launch, func() []uint32) {
		l, seg, err := c.NewLaunch()
		if err != nil {
			t.Fatal(err)
		}
		return l, func() []uint32 {
			words := l.Memory.ReadWords(seg.InBase, seg.InWords)
			words = append(words, l.Memory.ReadWords(seg.OutBase, seg.OutWords)...)
			return append(words, l.Memory.ReadWords(seg.AtomicBase, seg.AtomicWords)...)
		}
	})
}

// TestCorpusThreeWay runs verify's committed regression cases — multi-warp
// programs with barriers, LDS phases, loops, divergence and atomics — through
// the oracle, per-instruction StepOne, Step by private run and segment stepping.
func TestCorpusThreeWay(t *testing.T) {
	files, err := filepath.Glob("../../verify/testdata/*.case")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus cases found (%v)", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := verify.ParseCase(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		checkCase(t, c)
	}
}

// TestGeneratedThreeWay does the same for 200 generator seeds.
func TestGeneratedThreeWay(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkCase(t, verify.RandomCase(fmt.Sprintf("gen-%d", seed), seed))
	}
}
