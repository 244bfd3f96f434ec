// Package photon's root benchmark suite: one testing.B benchmark per table
// and figure of the paper's evaluation, at benchmark-friendly problem sizes.
// Each figure benchmark runs a representative slice of the corresponding
// experiment and reports the paper's two metrics — sampling error (err%) and
// wall-time speedup (speedup_x) — via b.ReportMetric. The full sweeps behind
// the figures are regenerated by cmd/photon-bench.
package photon

import (
	"io"
	"strconv"
	"testing"

	"photon/internal/baseline/pka"
	"photon/internal/baseline/tbpoint"
	"photon/internal/core"
	"photon/internal/harness"
	"photon/internal/sim/gpu"
	"photon/internal/stats"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// benchCompare runs one benchmark size under full mode and under a sampled
// runner once per b.N iteration, reporting error and speedup.
func benchCompare(b *testing.B, cfg gpu.Config, build func() (*workloads.App, error),
	newRunner func() gpu.Runner) {
	b.Helper()
	var errPct, speedup float64
	for i := 0; i < b.N; i++ {
		appFull, err := build()
		if err != nil {
			b.Fatal(err)
		}
		full, err := harness.RunApp(cfg, appFull, gpu.FullRunner{})
		if err != nil {
			b.Fatal(err)
		}
		appS, err := build()
		if err != nil {
			b.Fatal(err)
		}
		sampled, err := harness.RunApp(cfg, appS, newRunner())
		if err != nil {
			b.Fatal(err)
		}
		errPct = stats.AbsErrorPct(float64(full.KernelTime), float64(sampled.KernelTime))
		speedup = stats.Speedup(full.Wall, sampled.Wall)
	}
	b.ReportMetric(errPct, "err%")
	b.ReportMetric(speedup, "speedup_x")
}

func photonRunner(cfg gpu.Config, levels core.Levels) func() gpu.Runner {
	return func() gpu.Runner { return core.MustNew(cfg, core.DefaultParams(), levels) }
}

func specBuild(b *testing.B, abbr string, size int) func() (*workloads.App, error) {
	b.Helper()
	spec, err := workloads.FindSpec(abbr)
	if err != nil {
		b.Fatal(err)
	}
	return func() (*workloads.App, error) { return spec.Build(size) }
}

// --- Table 1 & Table 2 -----------------------------------------------------

func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard)
		// Building both GPUs exercises every configuration parameter.
		_ = gpu.New(gpu.R9Nano())
		_ = gpu.New(gpu.MI100())
	}
}

func BenchmarkTable2Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table2(io.Discard)
		for _, spec := range workloads.Table2() {
			if _, err := spec.Build(spec.Sizes[0] / 8); err != nil &&
				spec.Abbr != "MM" && spec.Abbr != "SC" {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 13: Full vs PKA vs Photon, R9 Nano ------------------------------

func BenchmarkFig13_ReLU_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "ReLU", 65536), photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig13_ReLU_PKA(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "ReLU", 65536),
		func() gpu.Runner { return pka.New(pka.DefaultParams()) })
}

func BenchmarkFig13_FIR_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "FIR", 16384), photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig13_FIR_PKA(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "FIR", 16384),
		func() gpu.Runner { return pka.New(pka.DefaultParams()) })
}

func BenchmarkFig13_SC_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "SC", 16384), photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig13_MM_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "MM", 16384), photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig13_MM_PKA(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "MM", 16384),
		func() gpu.Runner { return pka.New(pka.DefaultParams()) })
}

func BenchmarkFig13_SPMV_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "SPMV", 8192), photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig13_SPMV_PKA(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "SPMV", 8192),
		func() gpu.Runner { return pka.New(pka.DefaultParams()) })
}

func BenchmarkFig13_AES_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "AES", 6144), photonRunner(gpu.R9Nano(), core.AllLevels()))
}

// --- Figure 14: Photon on MI100 ---------------------------------------------

func BenchmarkFig14_ReLU_MI100(b *testing.B) {
	benchCompare(b, gpu.MI100(), specBuild(b, "ReLU", 65536), photonRunner(gpu.MI100(), core.AllLevels()))
}

func BenchmarkFig14_SPMV_MI100(b *testing.B) {
	benchCompare(b, gpu.MI100(), specBuild(b, "SPMV", 8192), photonRunner(gpu.MI100(), core.AllLevels()))
}

func BenchmarkFig14_MM_MI100(b *testing.B) {
	benchCompare(b, gpu.MI100(), specBuild(b, "MM", 16384), photonRunner(gpu.MI100(), core.AllLevels()))
}

// --- Figure 15: sampling levels ----------------------------------------------

func BenchmarkFig15_ReLU_BBOnly(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "ReLU", 65536), photonRunner(gpu.R9Nano(), core.Levels{BB: true}))
}

func BenchmarkFig15_ReLU_WarpOnly(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "ReLU", 65536), photonRunner(gpu.R9Nano(), core.Levels{Warp: true}))
}

func BenchmarkFig15_SPMV_BBOnly(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "SPMV", 8192), photonRunner(gpu.R9Nano(), core.Levels{BB: true}))
}

func BenchmarkFig15_SPMV_WarpOnly(b *testing.B) {
	// Irregular: warp-sampling must disable itself and fall back to full,
	// so the expected speedup here is ~1x with ~0 error.
	benchCompare(b, gpu.R9Nano(), specBuild(b, "SPMV", 8192), photonRunner(gpu.R9Nano(), core.Levels{Warp: true}))
}

func BenchmarkFig15_MM_BBOnly(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "MM", 16384), photonRunner(gpu.R9Nano(), core.Levels{BB: true}))
}

// --- Figure 16: real-world applications --------------------------------------

func BenchmarkFig16_PageRank_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return workloads.BuildPageRank(32 * 1024) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig16_VGG16_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return dnn.BuildVGG(16, benchScale()) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig16_ResNet18_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return dnn.BuildResNet(18, benchScale()) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkFig16_ResNet50_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return dnn.BuildResNet(50, benchScale()) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

// benchScale trims the DNNs further than the default experiment scale so the
// figure benchmarks stay minutes, not tens of minutes, under -bench=.
func benchScale() dnn.Scale { return dnn.Scale{Input: 32, ChannelDiv: 8} }

// --- Figure 17: VGG-16 per-layer by sampling level ---------------------------

func BenchmarkFig17_VGG16_KernelOnly(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return dnn.BuildVGG(16, benchScale()) },
		photonRunner(gpu.R9Nano(), core.Levels{Kernel: true}))
}

func BenchmarkFig17_VGG16_KernelWarp(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return dnn.BuildVGG(16, benchScale()) },
		photonRunner(gpu.R9Nano(), core.Levels{Kernel: true, Warp: true}))
}

// --- Observation figures (1-4, 6, 8, 11) -------------------------------------

func BenchmarkObserveFig1IPCSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig1(io.Discard, harness.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveFig3BlockFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig3(io.Discard, harness.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveFig4WarpFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig4(io.Discard, harness.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveFig8Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig8(io.Discard, harness.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveFig11WarpTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig11(io.Discard, harness.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: design choices DESIGN.md calls out ---------------------------

// BenchmarkAblationBBWindow sweeps the least-squares window: shallow windows
// lock onto the startup transient (the paper's local-optimum hazard).
func BenchmarkAblationBBWindow(b *testing.B) {
	for _, win := range []int{256, 1024, 2048} {
		win := win
		b.Run(benchName("win", win), func(b *testing.B) {
			params := core.DefaultParams()
			params.BBWindow = win
			benchCompare(b, gpu.R9Nano(), specBuild(b, "SPMV", 8192),
				func() gpu.Runner { return core.MustNew(gpu.R9Nano(), params, core.Levels{BB: true}) })
		})
	}
}

// BenchmarkAblationSampleFraction sweeps the online-analysis sample size.
func BenchmarkAblationSampleFraction(b *testing.B) {
	for _, pct := range []float64{0.005, 0.01, 0.05} {
		pct := pct
		b.Run(benchName("pct", int(pct*1000)), func(b *testing.B) {
			params := core.DefaultParams()
			params.SampleFraction = pct
			benchCompare(b, gpu.R9Nano(), specBuild(b, "ReLU", 65536),
				func() gpu.Runner { return core.MustNew(gpu.R9Nano(), params, core.AllLevels()) })
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// --- Extension workloads (atomics; beyond the paper's Table 2) -------------

func BenchmarkExtension_Histogram_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return workloads.BuildHistogram(8192) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkExtension_KMeans_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return workloads.BuildKMeans(1024) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

func BenchmarkExtension_BFS_Photon(b *testing.B) {
	benchCompare(b, gpu.R9Nano(),
		func() (*workloads.App, error) { return workloads.BuildBFS(1024) },
		photonRunner(gpu.R9Nano(), core.AllLevels()))
}

// BenchmarkBaselineTBPoint measures the fixed-fraction thread-block sampler
// on the same workload as the Photon/PKA Fig. 13 benches.
func BenchmarkBaselineTBPoint_MM(b *testing.B) {
	benchCompare(b, gpu.R9Nano(), specBuild(b, "MM", 16384),
		func() gpu.Runner { return tbpoint.New(tbpoint.DefaultParams()) })
}
