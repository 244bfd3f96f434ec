package serve

import (
	"slices"
	"strings"
	"testing"

	"photon/internal/harness"
)

func TestCanonicalizeAppliesDefaults(t *testing.T) {
	c, err := Canonicalize(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Arch != "r9nano" {
		t.Errorf("Arch = %q, want r9nano", c.Arch)
	}
	if len(c.Modes) != 1 || c.Modes[0] != "photon" {
		t.Errorf("Modes = %v, want [photon]", c.Modes)
	}
	if c.Size != 1024 {
		t.Errorf("Size = %d, want the smallest MM size 1024", c.Size)
	}
	if c.Bench != "MM" {
		t.Errorf("Bench = %q, want spec abbreviation MM", c.Bench)
	}
}

// Canonicalize must be idempotent: clients resubmit the Request field of a
// returned status verbatim, and that round trip must hash identically. Every
// spelling of every catalog entry is covered — the canonical name, each
// alias, in any case — because the canonical bench is the catalog's name and
// must resolve back to the same entry, label and size.
func TestCanonicalizeIdempotent(t *testing.T) {
	reqs := []JobRequest{
		{Bench: "SPMV", Size: 8192, Arch: "mi100", Modes: []string{"pka", "photon", "pka"}},
		{Experiment: "fig13", Quick: true, FixedWall: true},
		{Experiment: "fig16", PRNodes: 4096},
	}
	for _, wl := range harness.Workloads() {
		for _, n := range append([]string{wl.Name}, wl.Aliases...) {
			mixed := strings.ToUpper(n[:1]) + strings.ToLower(n[1:])
			for _, spelled := range []string{n, strings.ToUpper(n), strings.ToLower(n), mixed} {
				reqs = append(reqs, JobRequest{Bench: spelled})
			}
		}
	}
	for _, req := range reqs {
		once, err := Canonicalize(req)
		if err != nil {
			t.Fatalf("Canonicalize(%+v): %v", req, err)
		}
		twice, err := Canonicalize(once)
		if err != nil {
			t.Fatalf("re-Canonicalize(%+v): %v", once, err)
		}
		if Hash(once) != Hash(twice) {
			t.Errorf("Canonicalize not idempotent: %+v -> %+v -> %+v", req, once, twice)
		}
		if req.Bench == "" {
			continue
		}
		// The canonical request executes: it names a catalog entry at one of
		// its admissible sizes, which is all the executor asks of it.
		pt, err := harness.FindBench(once.Bench, once.Size)
		if err != nil || pt.Name != once.Bench || pt.Size != once.Size {
			t.Errorf("canonical %+v does not resolve to itself: %s/%d, %v", once, pt.Name, pt.Size, err)
		}
	}
}

// TestCanonicalHashesPinned pins the content address of four requests that
// round-tripped before the workload catalog existed (literals computed at
// da71fd6), so no stored CAS key and no ring owner moves: the first three
// are serve_mix cells, the fourth a fixed-shape model.
func TestCanonicalHashesPinned(t *testing.T) {
	cell := func(bench string, size int) JobRequest {
		return JobRequest{Bench: bench, Size: size, Arch: "r9nano", Modes: []string{"photon"}, FixedWall: true}
	}
	for _, tc := range []struct {
		req  JobRequest
		want string
	}{
		{cell("HIST", 4096), "ff95f7f87f9b7e3d6edb3038e9989c6288ae1fb2083cee62dc960ffc64a7b3c6"},
		{cell("SC", 384), "3513c90263892c84eca632530aec212f83aabb9f610b944f2e46ae4473097345"},
		{cell("ReLU", 16384), "a8cb6a4b6ce52565a10b8cacb13b1a6b935d8251091b193029d81d4b7ed7f14e"},
		{JobRequest{Bench: "vgg16"}, "7da082a9c393a143c8d3041f4df6548ee6b3b03582599f5cb40cfd54d8782391"},
		{JobRequest{Bench: "pagerank"}, "e7b503bc1cd542a45aa40391a9d7121e3b482c3e9ffe73afe0842fdbbf7f9b23"},
	} {
		c, err := Canonicalize(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if got := Hash(c); got != tc.want {
			t.Errorf("Hash(Canonicalize(%+v)) = %s, want %s (canonical %+v)", tc.req, got, tc.want, c)
		}
	}
}

func TestCanonicalizeNormalizesEquivalentRequests(t *testing.T) {
	a, err := Canonicalize(JobRequest{Bench: "mm", Size: 1024, Arch: "r9nano", Modes: []string{"photon"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(JobRequest{Bench: "MM"}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	if Hash(a) != Hash(b) {
		t.Errorf("explicit and defaulted spellings hash differently:\n%+v\n%+v", a, b)
	}
	// Mode order and duplicates must not matter.
	c1, _ := Canonicalize(JobRequest{Bench: "mm", Modes: []string{"pka", "photon"}})
	c2, _ := Canonicalize(JobRequest{Bench: "mm", Modes: []string{"photon", "pka", "photon"}})
	if Hash(c1) != Hash(c2) {
		t.Error("mode order/duplicates changed the hash")
	}
}

func TestExecutionHintsNotHashed(t *testing.T) {
	plain, err := Canonicalize(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := Canonicalize(JobRequest{Bench: "mm", Parallel: 8, TimeoutMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if Hash(plain) != Hash(hinted) {
		t.Error("Parallel/TimeoutMS leaked into the content hash")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"empty", JobRequest{}, "needs either"},
		{"both shapes", JobRequest{Experiment: "fig13", Bench: "mm"}, "no bench"},
		{"unknown experiment", JobRequest{Experiment: "fig99"}, "unknown experiment"},
		{"unknown bench", JobRequest{Bench: "nope"}, "unknown benchmark"},
		{"unknown arch", JobRequest{Bench: "mm", Arch: "h100"}, "unknown arch"},
		{"unknown mode", JobRequest{Bench: "mm", Modes: []string{"magic"}}, "unknown mode"},
		{"bad size", JobRequest{Bench: "mm", Size: 7}, "no size"},
		{"pr_nodes on sim job", JobRequest{Bench: "pr", PRNodes: 4096}, "experiment jobs only"},
		// Every name is bounded at submit: out-of-range and misaligned sizes
		// are a 400 here, never a worker-side failure or a giant allocation.
		{"pr oversize", JobRequest{Bench: "pr", Size: 1073741824}, "no size"},
		{"pr misaligned", JobRequest{Bench: "pr", Size: 1000}, "multiples of 64"},
		{"transformer oversize", JobRequest{Bench: "transformer", Size: 100000}, "no size"},
		{"trainstep oversize", JobRequest{Bench: "trainstep", Size: 1048576}, "no size"},
		{"pr just over", JobRequest{Bench: "pr", Size: 1<<20 + 64}, "no size"},
		{"negative size", JobRequest{Bench: "trainstep", Size: -1}, "no size"},
		{"pr_nodes oversize", JobRequest{Experiment: "fig16", PRNodes: 1073741824}, "pr_nodes"},
		{"pr_nodes misaligned", JobRequest{Experiment: "fig16", PRNodes: 1000}, "pr_nodes"},
	}
	for _, tc := range cases {
		_, err := Canonicalize(tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// The edges of each stated range are admitted, and keep their size.
func TestCanonicalizeAdmitsRangeEdges(t *testing.T) {
	for _, req := range []JobRequest{
		{Bench: "pr", Size: 64}, {Bench: "pr", Size: 1 << 20},
		{Bench: "transformer", Size: 1}, {Bench: "transformer", Size: 12},
		{Bench: "trainstep", Size: 1}, {Bench: "trainstep", Size: 64},
		{Experiment: "fig16", PRNodes: 64}, {Experiment: "fig16", PRNodes: 1 << 20},
	} {
		c, err := Canonicalize(req)
		if err != nil {
			t.Errorf("Canonicalize(%+v): %v", req, err)
		} else if c.Size != req.Size || c.PRNodes != req.PRNodes {
			t.Errorf("Canonicalize(%+v) moved the size: %+v", req, c)
		}
	}
}

// Every registered experiment is a servable name, the Section 3 observation
// figures included; names outside the table stay a 400 (TestCanonicalizeRejects).
func TestCanonicalizeAcceptsEveryExperiment(t *testing.T) {
	names := harness.ExperimentNames()
	for _, fig := range []string{"fig1", "fig2", "fig3", "fig4", "fig6", "fig8", "fig11"} {
		if !slices.Contains(names, fig) {
			t.Errorf("%s is not in the experiment table", fig)
		}
	}
	for _, name := range names {
		if c, err := Canonicalize(JobRequest{Experiment: name}); err != nil || c.Experiment != name {
			t.Errorf("Canonicalize(experiment %q) = %+v, %v", name, c, err)
		}
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	a, _ := Canonicalize(JobRequest{Bench: "mm"})
	b, _ := Canonicalize(JobRequest{Bench: "mm", Size: 4096})
	c, _ := Canonicalize(JobRequest{Bench: "mm", Arch: "mi100"})
	d, _ := Canonicalize(JobRequest{Experiment: "fig13"})
	e, _ := Canonicalize(JobRequest{Experiment: "fig13", Quick: true})
	hashes := map[string]string{}
	for name, h := range map[string]string{
		"size": Hash(b), "arch": Hash(c), "exp": Hash(d), "exp-quick": Hash(e), "base": Hash(a),
	} {
		if prev, dup := hashes[h]; dup {
			t.Errorf("hash collision between %s and %s", prev, name)
		}
		hashes[h] = name
	}
}
