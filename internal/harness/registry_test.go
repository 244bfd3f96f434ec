package harness

import (
	"bytes"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
)

// spellings returns every way a client may spell a catalog entry: the
// canonical name and each alias, as written, upper-cased, lower-cased and
// in alternating case.
func spellings(wl Workload) []string {
	var out []string
	for _, n := range append([]string{wl.Name}, wl.Aliases...) {
		mixed := []byte(strings.ToLower(n))
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] = strings.ToUpper(string(mixed[i]))[0]
		}
		out = append(out, n, strings.ToUpper(n), strings.ToLower(n), string(mixed))
	}
	return out
}

// TestFindBenchRoundTrip: every spelling of every catalog entry resolves to
// the entry's canonical name, and that name at the resolved size resolves to
// the same label and size again — what lets serve store the canonical name.
func TestFindBenchRoundTrip(t *testing.T) {
	for _, wl := range Workloads() {
		for _, spelled := range spellings(wl) {
			pt, err := FindBench(spelled, 0)
			if err != nil {
				t.Fatalf("FindBench(%q, 0): %v", spelled, err)
			}
			if pt.Name != wl.Name || pt.Size != wl.Default || pt.Bench != wl.Label(pt.Size) {
				t.Errorf("FindBench(%q, 0) = %s/%s/%d, want %s/%s/%d",
					spelled, pt.Name, pt.Bench, pt.Size, wl.Name, wl.Label(wl.Default), wl.Default)
			}
			again, err := FindBench(pt.Name, pt.Size)
			if err != nil {
				t.Fatalf("canonical FindBench(%q, %d): %v", pt.Name, pt.Size, err)
			}
			if again.Name != pt.Name || again.Bench != pt.Bench || again.Size != pt.Size {
				t.Errorf("canonical form drifted: %q/%d -> %s/%s/%d", pt.Name, pt.Size, again.Name, again.Bench, again.Size)
			}
		}
	}
}

// TestCatalogNamesAreUnambiguous: no two entries share a name or alias under
// the case-insensitive lookup, and every Table 2 and extension benchmark is
// in the catalog under its abbreviation with its figure sizes.
func TestCatalogNamesAreUnambiguous(t *testing.T) {
	seen := map[string]string{}
	for _, wl := range Workloads() {
		for _, n := range append([]string{wl.Name}, wl.Aliases...) {
			if prev, dup := seen[strings.ToLower(n)]; dup {
				t.Errorf("%q names both %s and %s", n, prev, wl.Name)
			}
			seen[strings.ToLower(n)] = wl.Name
		}
	}
	for _, spec := range append(workloads.Table2(), workloads.Extensions()...) {
		wl, err := FindWorkload(spec.Abbr)
		if err != nil {
			t.Fatal(err)
		}
		if wl.Name != spec.Abbr || len(wl.Sizes) != len(spec.Sizes) || wl.Sizes[0] != spec.Sizes[0] {
			t.Errorf("catalog entry for %s = %s %v, want the spec's sizes %v", spec.Abbr, wl.Name, wl.Sizes, spec.Sizes)
		}
	}
}

// TestAdmitBounds: every entry admits exactly its stated set — both edges of
// a range in, one step outside and a misaligned size out; every listed size
// in and a neighbour out; a fixed-shape model has no size axis.
func TestAdmitBounds(t *testing.T) {
	for _, wl := range Workloads() {
		in, out := append([]int{0}, wl.Sizes...), []int{-1}
		switch {
		case len(wl.Sizes) > 0:
			out = append(out, wl.Sizes[0]+1, wl.Sizes[len(wl.Sizes)-1]*2)
		case wl.fixedShape():
			if got, err := wl.Admit(12345); err != nil || got != 0 {
				t.Errorf("%s: Admit(12345) = %d, %v; a fixed-shape model ignores size", wl.Name, got, err)
			}
			continue
		default:
			in = append(in, wl.Min, wl.Max, wl.Default)
			out = append(out, -wl.Step, wl.Max+wl.Step) // Min-Step is 0, the default
			if wl.Step > 1 {
				out = append(out, wl.Min+1, wl.Max-1)
			}
		}
		for _, size := range in {
			got, err := wl.Admit(size)
			if err != nil || (size != 0 && got != size) || (size == 0 && got != wl.Default) {
				t.Errorf("%s: Admit(%d) = %d, %v; want admitted", wl.Name, size, got, err)
			}
		}
		for _, size := range out {
			if got, err := wl.Admit(size); err == nil {
				t.Errorf("%s: Admit(%d) = %d, want rejected (sizes: %s)", wl.Name, size, got, wl.sizeSet())
			}
		}
	}
	// The bounds themselves, so moving one is a visible decision.
	for name, want := range map[string]string{
		"pr":          "multiples of 64 in 64..1048576",
		"transformer": "1..12",
		"trainstep":   "1..64",
	} {
		wl, err := FindWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := wl.sizeSet(); got != want {
			t.Errorf("%s admits %s, want %s", name, got, want)
		}
	}
	if _, err := FindBench("nope", 0); err == nil || !strings.Contains(err.Error(), strings.Join(WorkloadNames(), ", ")) {
		t.Errorf("unknown-benchmark error does not list the catalog: %v", err)
	}
}

// TestQuickTransformerStaysOutOfSharedBaselines: the quick transformer
// experiment's toy stack prints the label Xfmr-L2 at size 2 — the catalog's
// label for a different, larger app. With one shared BaselineCache (what
// photon-serve keeps per process), running the experiment first must not
// change the full_cycles a later `-bench transformer -size 2` reports.
func TestQuickTransformerStaysOutOfSharedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick transformer sweep and two 2-layer baselines")
	}
	fullCycles := func(cache *BaselineCache) int64 {
		var buf bytes.Buffer
		o := DefaultOptions()
		o.FixedWall = true
		o.Baselines = cache
		o.JSON = NewJSONSink(&buf)
		sweep, err := SimSweep(gpu.R9Nano(), "transformer", 2, nil, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.RunSweep(&bytes.Buffer{}, sweep); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJSONLines[Record](&buf)
		if err != nil || len(recs) != 1 || recs[0].Bench != "Xfmr-L2" {
			t.Fatalf("records = %+v, %v; want the one Xfmr-L2 baseline row", recs, err)
		}
		return recs[0].FullCycles
	}
	fresh := fullCycles(NewBaselineCache())

	shared := NewBaselineCache()
	o := DefaultOptions()
	o.Quick = true
	o.FixedWall = true
	o.Baselines = shared
	var quick bytes.Buffer
	o.JSON = NewJSONSink(&quick)
	if err := TransformerEnvelope(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONLines[Record](&quick)
	if err != nil || len(recs) == 0 || recs[0].Bench != "Xfmr-L2" {
		t.Fatalf("quick sweep records = %+v, %v", recs, err)
	}
	if recs[0].FullCycles == fresh {
		t.Fatalf("toy and catalog stacks both take %d cycles: the test no longer tells them apart", fresh)
	}
	if got := fullCycles(shared); got != fresh {
		t.Fatalf("after the quick experiment, transformer/2 reports full_cycles %d; a fresh process reports %d", got, fresh)
	}
}
