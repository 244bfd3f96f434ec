package core

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"photon/internal/core/bbv"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
)

func TestAnalysisStoreRoundTrip(t *testing.T) {
	app, err := workloads.BuildSPMV(64)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Launches[0]
	prof, err := AnalyzeOnline(l, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := NewAnalysisStore()
	if _, ok := s.Get(l); ok {
		t.Fatal("empty store returned a profile")
	}
	s.Put(l, prof)
	got, ok := s.Get(l)
	if !ok {
		t.Fatal("stored profile not found")
	}
	if got.SampledWarps != prof.SampledWarps || got.SampledInsts != prof.SampledInsts {
		t.Fatal("sample counts differ after round trip")
	}
	if len(got.Types) != len(prof.Types) {
		t.Fatal("type counts differ")
	}
	if d := bbv.Distance(got.GPU, prof.GPU); d > 1e-12 {
		t.Fatalf("GPU BBV differs after round trip: %v", d)
	}
	if math.Abs(got.MeanWarpInsts-prof.MeanWarpInsts) > 1e-9 {
		t.Fatal("mean warp insts differ")
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", s.Hits(), s.Misses())
	}
}

func TestAnalysisStoreSerialization(t *testing.T) {
	app, err := workloads.BuildFIR(32)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Launches[0]
	prof, err := AnalyzeOnline(l, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewAnalysisStore()
	s.Put(l, prof)

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewAnalysisStore()
	if err := s2.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(l)
	if !ok {
		t.Fatal("profile lost through serialization")
	}
	if got.SampledInsts != prof.SampledInsts {
		t.Fatal("profile corrupted through serialization")
	}
}

func TestAnalysisStoreFileIO(t *testing.T) {
	app, err := workloads.BuildReLU(16)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Launches[0]
	prof, err := AnalyzeOnline(l, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewAnalysisStore()
	s.Put(l, prof)
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewAnalysisStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("loaded %d profiles, want 1", s2.Len())
	}
}

func TestLaunchKeyDistinguishesLaunches(t *testing.T) {
	a1, _ := workloads.BuildReLU(16)
	a2, _ := workloads.BuildReLU(32)
	if launchKey(a1.Launches[0]) == launchKey(a2.Launches[0]) {
		t.Fatal("different sizes share a launch key")
	}
	a3, _ := workloads.BuildReLU(16)
	if launchKey(a1.Launches[0]) != launchKey(a3.Launches[0]) {
		t.Fatal("identical builds have different launch keys")
	}
}

// TestOfflinePhotonMatchesOnline runs PageRank twice under Photon — once
// cold, once with the warmed store — and checks both predict identical
// kernel times (offline mode is a pure cache) while the second run serves
// analyses from the store.
func TestOfflinePhotonMatchesOnline(t *testing.T) {
	build := func() *workloads.App {
		app, err := workloads.BuildPageRank(64 * 64)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	store := NewAnalysisStore()

	runOnce := func() []gpu.KernelResult {
		g := gpu.New(smallGPU())
		ph := MustNew(smallGPU(), testParams(), AllLevels())
		ph.SetStore(store)
		var out []gpu.KernelResult
		for _, l := range build().Launches {
			r, err := gpu.RunKernel(ph, g, l)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}

	first := runOnce()
	missesAfterFirst := store.Misses()
	second := runOnce()
	if store.Misses() != missesAfterFirst {
		t.Fatalf("second run missed the store (%d -> %d misses)",
			missesAfterFirst, store.Misses())
	}
	if store.Hits() == 0 {
		t.Fatal("second run never hit the store")
	}
	for i := range first {
		if first[i].SimTime != second[i].SimTime {
			t.Fatalf("kernel %d: offline time %d != online time %d",
				i, second[i].SimTime, first[i].SimTime)
		}
	}
}
