package workloads

import (
	"hash/fnv"
	"math"

	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
)

func TestHistogramFunctional(t *testing.T) {
	app, err := BuildHistogram(16)
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, app)
}

// TestHistogramFunctionalMatchesRecorded pins the functional fast-forward
// of a kernel whose workgroups meet in memory (atomic adds on shared bins):
// instruction total and the input+bins image equal the values recorded at
// commit 592a5ee, when RunKernelFunctional replayed HIST/4096 in batches.
// Atomic add commutes, so this pins what is executed, not its order;
// emu.TestRunKernelFunctionalAscendingOrder pins the order.
func TestHistogramFunctionalMatchesRecorded(t *testing.T) {
	const (
		recordedInsts = 61440
		recordedImage = 0x6f324409bebbd5a6
	)
	app, err := BuildHistogram(4096)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Launches[0]
	insts, err := emu.RunKernelFunctional(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	data, bins := uint64(l.Args[0]), uint64(l.Args[1])
	for _, seg := range [][2]uint64{{data, uint64(l.Args[2])}, {bins, histBins}} {
		for i := uint64(0); i < seg[1]; i++ {
			v := l.Memory.Read32(seg[0] + 4*i)
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
	}
	if insts != recordedInsts || h.Sum64() != recordedImage {
		t.Fatalf("insts = %d, image = %#x; recorded %d, %#x", insts, h.Sum64(), recordedInsts, uint64(recordedImage))
	}
}

// TestHistogramUnderTiming verifies that timing-interleaved atomic execution
// still produces exact counts (atomic add commutes, so any interleaving
// yields the same result).
func TestHistogramUnderTiming(t *testing.T) {
	app, err := BuildHistogram(32)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.R9Nano())
	res, err := gpu.RunKernel(gpu.FullRunner{}, g, app.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 {
		t.Fatal("degenerate timing result")
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramContentionCosts checks the atomic serialization model: a
// dataset where every thread hits ONE bin must be slower than a uniform
// spread across all bins.
func TestHistogramContentionCosts(t *testing.T) {
	run := func(mutate func([]uint32)) int64 {
		app, err := BuildHistogram(32)
		if err != nil {
			t.Fatal(err)
		}
		l := app.Launches[0]
		n := l.TotalWarps() * kernel.WavefrontSize
		data := uint64(l.Args[0])
		host := make([]uint32, n)
		mutate(host)
		l.Memory.WriteWords(data, host)
		g := gpu.New(gpu.R9Nano())
		res, err := gpu.RunKernel(gpu.FullRunner{}, g, l)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.SimTime)
	}
	hot := run(func(h []uint32) {
		for i := range h {
			h[i] = 7 // single bin
		}
	})
	spread := run(func(h []uint32) {
		for i := range h {
			h[i] = uint32(i % histBins)
		}
	})
	if hot <= spread {
		t.Fatalf("single-bin histogram (%d) not slower than spread (%d)", hot, spread)
	}
}

func TestExtensionsRegistry(t *testing.T) {
	exts := Extensions()
	if len(exts) == 0 {
		t.Fatal("no extension workloads")
	}
	for _, s := range exts {
		if s.Build == nil || len(s.Sizes) == 0 {
			t.Fatalf("incomplete extension spec %q", s.Abbr)
		}
	}
}

func TestKMeansFunctional(t *testing.T) {
	app, err := BuildKMeans(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Launches) != 4*kmIterations {
		t.Fatalf("kmeans launches = %d, want %d", len(app.Launches), 4*kmIterations)
	}
	runFunctional(t, app)
}

// TestKMeansAssignMatchesHost verifies the assign kernel against a host
// nearest-centroid computation after one functional iteration.
func TestKMeansAssignMatchesHost(t *testing.T) {
	app, err := BuildKMeans(4)
	if err != nil {
		t.Fatal(err)
	}
	l := app.Launches[0] // first assign kernel
	if _, err := emu.RunKernelFunctional(l); err != nil {
		t.Fatal(err)
	}
	points := uint64(l.Args[0])
	cents := uint64(l.Args[1])
	assign := uint64(l.Args[2])
	n := int(l.Args[3])
	pts := app.Mem.ReadFloats(points, n*kmDims)
	cs := app.Mem.ReadFloats(cents, kmClusters*kmDims)
	for i := 0; i < n; i++ {
		best, bestD := 0, float32(math.MaxFloat32)
		for k := 0; k < kmClusters; k++ {
			var d float32
			for dd := 0; dd < kmDims; dd++ {
				diff := pts[i*kmDims+dd] - cs[k*kmDims+dd]
				d = diff*diff + d
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		if got := app.Mem.Read32(assign + uint64(4*i)); got != uint32(best) {
			t.Fatalf("assign[%d] = %d, want %d", i, got, best)
		}
	}
}

func TestKMeansUnderTiming(t *testing.T) {
	app, err := BuildKMeans(8)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.R9Nano())
	for _, l := range app.Launches {
		if _, err := gpu.RunKernel(gpu.FullRunner{}, g, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBFSFunctional(t *testing.T) {
	app, err := BuildBFS(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Launches) < 2 {
		t.Fatalf("BFS has %d levels; graph should need several", len(app.Launches))
	}
	runFunctional(t, app)
}

// TestBFSUnderTiming: atomic-min is order-independent, so even the
// timing-interleaved schedule must reproduce exact BFS levels.
func TestBFSUnderTiming(t *testing.T) {
	app, err := BuildBFS(8)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.R9Nano())
	for _, l := range app.Launches {
		if _, err := gpu.RunKernel(gpu.FullRunner{}, g, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFindExtension(t *testing.T) {
	if _, err := FindExtension("bfs"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindExtension("nope"); err == nil {
		t.Fatal("unknown extension accepted")
	}
}

func TestReductionFunctional(t *testing.T) {
	app, err := BuildReduction(64) // 4096 elements -> 2 passes
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Launches) != 2 {
		t.Fatalf("passes = %d, want 2", len(app.Launches))
	}
	runFunctional(t, app)
}

func TestReductionUnderTiming(t *testing.T) {
	app, err := BuildReduction(16)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.R9Nano())
	for _, l := range app.Launches {
		if _, err := gpu.RunKernel(gpu.FullRunner{}, g, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReductionRejectsPartialGroups(t *testing.T) {
	if _, err := BuildReduction(3); err == nil {
		t.Fatal("partial workgroup accepted")
	}
}
