// Command photon-sim runs one GPU workload under one simulation
// methodology and reports kernel execution time, instruction counts and
// host wall time.
//
//	photon-sim -bench MM -size 1024 -arch r9nano -mode photon
//	photon-sim -bench resnet18 -mode full
//	photon-sim -bench spmv -size 2048 -mode pka -per-kernel
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"photon/internal/buildinfo"
	"photon/internal/core"
	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/trace"
)

func main() {
	var (
		bench      = flag.String("bench", "MM", "benchmark: "+strings.Join(harness.WorkloadNames(), "|"))
		size       = flag.Int("size", 0, "problem size in warps (single-kernel benchmarks; 0 = first figure size); node count for pr, layers for transformer, batch for trainstep")
		arch       = flag.String("arch", "r9nano", "GPU configuration: r9nano or mi100")
		mode       = flag.String("mode", "photon", "runner: "+strings.Join(harness.ModeNames(), "|"))
		perKernel  = flag.Bool("per-kernel", false, "print one row per kernel launch, with where it ran and which run left its image")
		check      = flag.Bool("check", false, "audit simulator invariants inline and verify functional correctness after simulation (where supported)")
		store      = flag.String("analysis-store", "", "offline Photon: JSON file caching online-analysis profiles (created if missing)")
		splitWait  = flag.Bool("split-waitcnt", false, "also end basic blocks at s_waitcnt (paper future-work variant)")
		tracePath  = flag.String("trace", "", "write an execution trace (full mode only)")
		traceLvl   = flag.String("trace-level", "warp", "trace detail: warp|block|inst")
		disasm     = flag.Bool("disasm", false, "print each kernel's disassembly and exit")
		metricsOut = flag.String("metrics-out", "", "write a telemetry snapshot (metrics.json) to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file (load in chrome://tracing or Perfetto)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("photon-sim"))
		return
	}
	traceLevel, ok := map[string]trace.Level{
		"warp": trace.LevelWarp, "block": trace.LevelBlock, "inst": trace.LevelInst,
	}[*traceLvl]
	if !ok {
		usageError("unknown -trace-level %q (want warp|block|inst)", *traceLvl)
	}
	cfg, ok := gpu.Configs(*arch)
	if !ok {
		usageError("unknown -arch %q (want r9nano|mi100)", *arch)
	}
	wl, err := harness.FindWorkload(*bench)
	if err != nil {
		usageError("%v", err)
	}
	factory, err := harness.FactoryForMode(*mode, core.DefaultParams())
	if err != nil {
		usageError("%v", err)
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "photon-sim: profiles: %v\n", err)
		}
	}()

	app, err := wl.Point(*size, harness.DefaultOptions().DNNScale).Build()
	if err != nil {
		fatal("%v", err)
	}
	if *splitWait {
		app = app.WithBlockOptions(isa.BlockOptions{SplitAtWaitcnt: true})
	}
	if *disasm {
		seen := map[uint64]bool{}
		for _, l := range app.Launches {
			if seen[l.Program.Fingerprint] {
				continue
			}
			seen[l.Program.Fingerprint] = true
			fmt.Println(l.Program.Disassemble())
		}
		return
	}
	runner := factory.New(cfg)
	var tracer *trace.Tracer
	if *tracePath != "" {
		fr, ok := runner.(gpu.FullRunner)
		if !ok {
			fatal("-trace requires -mode full")
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		tracer = trace.New(f, traceLevel)
		fr.Observer = tracer.Observer()
		runner = fr
	}
	var analysisStore *core.AnalysisStore
	if *store != "" {
		ph, ok := runner.(*core.Photon)
		if !ok {
			var photonModes []string
			for _, m := range harness.ModeNames() {
				f, _ := harness.FactoryForMode(m, core.DefaultParams())
				if _, ok := f.New(cfg).(*core.Photon); ok {
					photonModes = append(photonModes, m)
				}
			}
			fatal("-analysis-store requires a Photon mode (%s)", strings.Join(photonModes, "|"))
		}
		analysisStore = core.NewAnalysisStore()
		if err := analysisStore.LoadFile(*store); err != nil && !os.IsNotExist(err) {
			fatal("loading analysis store: %v", err)
		}
		ph.SetStore(analysisStore)
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var traceBuf *obs.TraceBuffer
	if *traceOut != "" {
		traceBuf = obs.NewTraceBuffer()
	}

	res, err := harness.RunAppInstrumented(context.Background(), cfg, app, runner,
		harness.AppObs{Metrics: reg, Trace: traceBuf, Check: *check})
	if err != nil {
		fatal("%v", err)
	}
	if *perKernel {
		fmt.Printf("%-12s %-14s %14s %14s %10s %-17s %s\n", "kernel", "mode", "cycles", "insts", "wall_ms", "ran", "image")
		for _, k := range res.PerKernel {
			fmt.Printf("%-12s %-14s %14d %14d %10.2f %-17s %s\n",
				k.Name, k.Mode, k.SimTime, k.Insts, float64(k.Wall.Microseconds())/1000, k.Ran, k.Image)
		}
	}
	fmt.Printf("app=%s arch=%s runner=%s kernels=%d\n", app.Name, cfg.Name, runner.Name(), len(app.Launches))
	fmt.Printf("kernel_time_cycles=%d insts=%d wall=%s\n", res.KernelTime, res.Insts, res.Wall)
	if analysisStore != nil {
		fmt.Printf("analysis store: %d profiles, %d hits, %d misses\n",
			analysisStore.Len(), analysisStore.Hits(), analysisStore.Misses())
		if err := analysisStore.SaveFile(*store); err != nil {
			fatal("saving analysis store: %v", err)
		}
	}
	if tracer != nil {
		// Surface partial traces loudly: a mid-run write failure both drops
		// events and poisons Flush, and either condition must reach the user.
		flushErr := tracer.Flush()
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "photon-sim: warning: %d trace events dropped after write error\n", n)
		}
		if flushErr != nil {
			fatal("flushing trace: %v", flushErr)
		}
		fmt.Printf("trace: %d warps, %d blocks, %d insts -> %s\n",
			tracer.Warps, tracer.Blocks, tracer.Insts, *tracePath)
	}
	if err := harness.WriteTelemetry(os.Stderr, "photon-sim", "trace-out", reg, *metricsOut, traceBuf, *traceOut); err != nil {
		fatal("%v", err)
	}
	if reg != nil {
		fmt.Fprintf(os.Stderr, "photon-sim: metrics snapshot -> %s\n", *metricsOut)
	}
	if traceBuf != nil {
		fmt.Fprintf(os.Stderr, "photon-sim: %d trace events -> %s\n", traceBuf.Len(), *traceOut)
	}
	if *check {
		fmt.Printf("audit: %d kernels, invariants ok\n", len(res.PerKernel))
		if app.Check == nil {
			fmt.Println("check: not supported for this workload")
		} else if k, stale := res.StaleKernel(); stale {
			fmt.Printf("check: skipped (%s ran under %s, which predicts its remaining workgroups without executing them; DESIGN.md \"Memory contract per tier\")\n", k.Name, k.Mode)
		} else if err := app.Check(); err != nil {
			fatal("check failed: %v", err)
		} else {
			fmt.Println("check: ok")
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "photon-sim: "+format+"\n", args...)
	os.Exit(1)
}

// usageError reports a flag value outside its accepted set: exit 2, like a
// flag parse error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "photon-sim: "+format+"\n", args...)
	os.Exit(2)
}
