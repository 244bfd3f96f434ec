// Command photon-bench regenerates the paper's tables, its Section 3
// observation figures (1-4, 6, 8, 11) and its evaluation figures (13-17).
// Every evaluation figure sweeps benchmarks × sizes × runners and prints rows
// with kernel-time error vs full-detailed mode and host wall-time speedup.
//
// Each experiment is executed as a job graph on a bounded worker pool
// (-parallel, default one worker per CPU); full-detailed baselines are
// memoized in a cache shared across all experiments of the invocation, so
// each (config, bench, size) cell is simulated exactly once per run. Rows
// are printed in plan order regardless of completion order, so output is
// stable for any worker count (-fixed-wall additionally pins wall times,
// making output byte-identical).
//
//	photon-bench -exp fig13
//	photon-bench -exp all -quick -parallel 8
//
// The experiment set comes from the registry shared with photon-serve
// (internal/harness.Experiments), so the CLI and the service always agree
// on names and behavior.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with testable plumbing: every failure path — including
// the deferred profile/artifact writes that used to only log — flows into
// the returned exit code. 0 = success, 1 = runtime failure, 2 = usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("photon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(harness.ExperimentNames(), "|")+"|all")
		quick      = fs.Bool("quick", false, "smallest problem size per benchmark only")
		prNodes    = fs.Int("pr-nodes", 64*1024, "PageRank node count for fig16")
		jsonPath   = fs.String("json", "", "also write every comparison as JSON lines to this file")
		parallel   = fs.Int("parallel", 0, "worker count for experiment jobs (<= 0: one per CPU)")
		fixedWall  = fs.Bool("fixed-wall", false, "pin wall times in output so runs diff byte-identically")
		svgDir     = fs.String("svg", "", "also render figures as SVG into this directory (fig1)")
		check      = fs.Bool("check", false, "audit simulator invariants inline on every sampled run")
		metricsOut = fs.String("metrics-out", "", "write a telemetry snapshot (metrics.json) to this file")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event file (load in chrome://tracing or Perfetto)")
		accOut     = fs.String("accuracy-out", "", "write the per-kernel sampling-accuracy ledger (JSON lines) to this file")
		logLevel   = fs.String("log-level", "", "enable structured stderr logging at this level (debug, info, warn, error)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Print("photon-bench"))
		return 0
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "photon-bench: %v\n", err)
		return 1
	}
	code := runExperiments(benchFlags{
		exp:        *exp,
		quick:      *quick,
		prNodes:    *prNodes,
		jsonPath:   *jsonPath,
		parallel:   *parallel,
		fixedWall:  *fixedWall,
		svgDir:     *svgDir,
		check:      *check,
		metricsOut: *metricsOut,
		traceOut:   *traceOut,
		accOut:     *accOut,
		logLevel:   *logLevel,
	}, stdout, stderr)
	// A profile that fails to materialize is a failed run, not a footnote:
	// the caller asked for the artifact.
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "photon-bench: profiles: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

type benchFlags struct {
	exp        string
	quick      bool
	prNodes    int
	jsonPath   string
	parallel   int
	fixedWall  bool
	svgDir     string
	check      bool
	metricsOut string
	traceOut   string
	accOut     string
	logLevel   string
}

func runExperiments(f benchFlags, stdout, stderr io.Writer) int {
	o := harness.DefaultOptions()
	o.Quick = f.quick
	o.PRNodes = f.prNodes
	o.Parallel = f.parallel
	o.FixedWall = f.fixedWall
	o.SVGDir = f.svgDir
	o.Baselines = harness.NewBaselineCache()

	var jsonFile *os.File
	if f.jsonPath != "" {
		var err error
		jsonFile, err = os.Create(f.jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "photon-bench: %v\n", err)
			return 1
		}
		o.JSON = harness.NewJSONSink(jsonFile)
	}
	if f.metricsOut != "" {
		o.Metrics = obs.NewRegistry()
	}
	if f.traceOut != "" {
		o.Trace = obs.NewTraceBuffer()
	}
	if f.logLevel != "" {
		// Structured logs go to stderr, never stdout: row output must stay
		// byte-identical with logging on.
		o.Log = obs.NewTextLogger(stderr, obs.ParseLevel(f.logLevel))
	}
	// The accuracy ledger always rides along: the sink keeps the run-end
	// roll-up even when no -accuracy-out file is requested.
	var accFile *os.File
	if f.accOut != "" {
		var err error
		accFile, err = os.Create(f.accOut)
		if err != nil {
			fmt.Fprintf(stderr, "photon-bench: %v\n", err)
			return 1
		}
		o.Accuracy = harness.NewAccuracySink(accFile)
	} else {
		o.Accuracy = harness.NewAccuracySink(nil)
	}
	o.Check = f.check

	wants := map[string]bool{}
	for _, name := range strings.Split(f.exp, ",") {
		name = strings.TrimSpace(name)
		if name != "all" {
			if _, ok := harness.FindExperiment(name); !ok {
				fmt.Fprintf(stderr, "photon-bench: unknown experiment %q\n", name)
				return 2
			}
		}
		wants[name] = true
	}

	for _, e := range harness.Experiments() {
		if !wants["all"] && !wants[e.Name] {
			continue
		}
		start := time.Now()
		if err := e.Run(stdout, o); err != nil {
			fmt.Fprintf(stderr, "photon-bench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintln(stdout)
		// Progress metadata goes to stderr so stdout stays diffable across
		// runs and worker counts (wall time is nondeterministic).
		fmt.Fprintf(stderr, "(%s regenerated in %s)\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if f.check {
		// A violation failed its experiment above, at the kernel that showed it.
		fmt.Fprintln(stderr, "(check: every sampled kernel of every sweep audited, invariants ok)")
	}
	if n := o.Baselines.Simulated(); n > 0 {
		fmt.Fprintf(stderr, "(baseline cache: %d full runs simulated, %d reused)\n",
			n, o.Baselines.Hits())
	}
	// Run-end accuracy roll-up: where the sampler spent its kernels and how
	// far predictions drifted from the detailed baseline.
	if o.Accuracy.Kernels() > 0 {
		fmt.Fprintf(stderr, "(%s)\n", o.Accuracy.Summary())
		o.Accuracy.PublishGauges(o.Metrics)
	}
	if accFile != nil {
		if err := accFile.Close(); err != nil {
			fmt.Fprintf(stderr, "photon-bench: closing %s: %v\n", f.accOut, err)
			return 1
		}
		fmt.Fprintf(stderr, "(accuracy ledger: %d kernels -> %s)\n", o.Accuracy.Kernels(), f.accOut)
	}
	if o.Log != nil && o.Log.Suppressed() > 0 {
		fmt.Fprintf(stderr, "photon-bench: %d log records suppressed by rate limit\n", o.Log.Suppressed())
	}
	if jsonFile != nil {
		if err := jsonFile.Close(); err != nil {
			fmt.Fprintf(stderr, "photon-bench: closing %s: %v\n", f.jsonPath, err)
			return 1
		}
	}
	if err := harness.WriteTelemetry(stderr, "photon-bench", "trace", o.Metrics, f.metricsOut, o.Trace, f.traceOut); err != nil {
		fmt.Fprintf(stderr, "photon-bench: %v\n", err)
		return 1
	}
	if o.Metrics != nil {
		// Run-level summary: how much work the engine did and where
		// instructions went, so a sweep's telemetry is legible without
		// opening the artifact.
		snap := o.Metrics.Snapshot()
		fmt.Fprintf(stderr,
			"(telemetry: %d jobs ok, %d failed; %d insts detailed, %d predicted; metrics -> %s)\n",
			snap.SumCounters("engine_jobs_total", obs.L("status", "ok")),
			snap.SumCounters("engine_jobs_total", obs.L("status", "error")),
			snap.SumCounters("photon_insts_detailed_total"),
			snap.SumCounters("photon_insts_predicted_total"),
			f.metricsOut)
	}
	if o.Trace != nil {
		fmt.Fprintf(stderr, "(telemetry: %d trace events -> %s)\n", o.Trace.Len(), f.traceOut)
	}
	return 0
}
