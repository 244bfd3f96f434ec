// Command benchmark is the repository's one benchmark: it drives the
// simulator and the service from outside, through the layers' public
// functions, and prints every metric by name with its unit.
//
//	go run ./benchmark -workload <name> [-seed N] [-seconds N] [-reps N] [-trace 0|1] [-out runs.jsonl]
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one metric's value in one run: the median over its repetitions,
// with what is needed to judge it.
type sample struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	MAD   float64   `json:"mad"`
	N     int       `json:"n"`
	Reps  []float64 `json:"reps,omitempty"`
	// Raw is the value as the clock read it, before host-speed
	// normalisation; 0 for metrics that are not normalised.
	Raw float64 `json:"raw,omitempty"`
}

// scaled returns s at reference host speed: every figure times factor, the
// clock's reading kept in Raw.
func (s sample) scaled(factor float64) sample {
	s.Raw = s.Value
	s.Value *= factor
	s.MAD *= factor
	reps := make([]float64, len(s.Reps))
	for i, v := range s.Reps {
		reps[i] = v * factor
	}
	s.Reps = reps
	return s
}

// summarize and single leave Unit empty: report fills it from the metric
// tables, the one place units are written down.
func summarize(reps []float64) sample {
	return sample{Value: median(reps), MAD: mad(reps), N: len(reps), Reps: reps}
}

func single(v float64) sample { return sample{Value: v, N: 1} }

// runRecord is one run as -out appends it and -compare reads it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	def    workloadDef
	seed   int64
	budget time.Duration // measuring time of the untraced run
	reps   int           // fixed repetition count of the budget-filling phase; 0 = fill
	sizes  microSizes
	outDir string  // scratch for CAS directories and span files
	tr     *tracer // nil in untraced runs
	log    io.Writer

	// Yardstick samples of an untraced run, by phase (see yardstick.go).
	yardSim, yardServe []float64
	lastYard           time.Time

	mu        sync.Mutex
	attempted int
	failed    int
	golden    map[string]artifacts
	peakHeap  uint64
}

// op counts one operation — a simulation or a served request — and its
// failure, if any.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintf(b.log, "FAILED op: %v\n", err)
		}
	}
}

// Bounds on the repetitions of a budget-filling phase.
const (
	minReps = 3
	maxReps = 15
)

// fill runs one(rep) for rep = 0, 1, … — fixed times when fixed > 0,
// otherwise until the next repetition would overrun deadline, within
// [minReps, maxReps].
func fill(fixed int, deadline time.Time, one func(rep int)) {
	start := time.Now()
	for rep := 0; ; rep++ {
		if fixed > 0 {
			if rep >= fixed {
				return
			}
		} else if rep >= minReps {
			mean := time.Since(start) / time.Duration(rep)
			if rep >= maxReps || time.Now().Add(mean).After(deadline) {
				return
			}
		}
		one(rep)
	}
}

// simPhase runs the simulation phase: reps fixed when > 0, else budgeted.
func (b *bench) simPhase(reps int, deadline time.Time) []simRep {
	var out []simRep
	fill(reps, deadline, func(rep int) {
		var first *simRep
		if rep > 0 {
			first = &out[0]
		}
		out = append(out, b.runSimRep(0, rep, first))
	})
	return out
}

// servePhase runs the serve phase likewise.
func (b *bench) servePhase(reps int, deadline time.Time) []serveRep {
	var out []serveRep
	fill(reps, deadline, func(rep int) {
		r, err := b.runServeRep(0, rep)
		if err != nil {
			b.op(fmt.Errorf("serve rep %d: %w", rep, err))
			return
		}
		out = append(out, r)
	})
	return out
}

// setupSamples times a few extra topology starts so setup_s has a median to
// report even when the serve phase runs once.
func (b *bench) setupSamples(n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(b.outDir, fmt.Sprintf("cas-%d-setup", os.Getpid()))
		t0 := time.Now()
		topo, err := startTopology(dir)
		d := time.Since(t0).Seconds()
		if err != nil {
			b.op(fmt.Errorf("setup sample %d: %w", i, err))
			continue
		}
		if err := topo.stop(); err != nil {
			b.op(fmt.Errorf("setup sample %d: teardown: %w", i, err))
		}
		out = append(out, d)
	}
	return out
}

// serveReserve is the part of the budget a simulation workload keeps back
// for its fixed serve phase, per repetition of that phase.
const serveReserve = 3200 * time.Millisecond

// runUntraced measures the end-to-end metrics. The simulation phase runs
// first, on the cleanest heap the process will have; whichever phase has no
// fixed repetition count fills the budget.
func (b *bench) runUntraced() map[string]sample {
	deadline := time.Now().Add(b.budget)
	var sims []simRep
	var serves []serveRep
	if b.def.SimReps > 0 {
		sims = b.simPhase(b.def.SimReps, deadline)
		serves = b.servePhase(b.reps, deadline)
	} else {
		reserve := time.Duration(b.def.ServeReps) * serveReserve
		sims = b.simPhase(b.reps, deadline.Add(-reserve))
		serves = b.servePhase(b.def.ServeReps, deadline)
	}
	topoSetup := b.setupSamples(5)

	out := make(map[string]sample)
	if len(sims) > 0 {
		simEndToEnd(sims, out)
	}
	if len(serves) > 0 {
		serveEndToEnd(serves, out)
	}
	// setup_s: building every app of the workload once, plus opening the CAS
	// directories and starting workers and router once — each the median of
	// all the times this run did it.
	var builds []float64
	for _, r := range sims {
		builds = append(builds, sumBuild(r.detailed), sumBuild(r.photon))
	}
	for _, r := range serves {
		topoSetup = append(topoSetup, r.setupS)
	}
	out["setup_s"] = sample{
		Value: median(builds) + median(topoSetup),
		MAD:   mad(builds) + mad(topoSetup), N: len(builds) + len(topoSetup),
	}

	// Report every time metric at reference host speed.
	ySim, yServe := median(b.yardSim), median(b.yardServe)
	yAll := median(append(append([]float64(nil), b.yardSim...), b.yardServe...))
	fmt.Fprintf(b.log, "yardstick: sim phase %.4f s (n=%d), serve phase %.4f s (n=%d), reference %.4f s\n",
		ySim, len(b.yardSim), yServe, len(b.yardServe), yardRef)
	if ySim > 0 && yServe > 0 {
		out["detailed_wall_s"] = out["detailed_wall_s"].scaled(yardRef / ySim)
		out["photon_wall_s"] = out["photon_wall_s"].scaled(yardRef / ySim)
		out["serve_cold_jobs_per_s"] = out["serve_cold_jobs_per_s"].scaled(yServe / yardRef)
		out["serve_warm_p50_ms"] = out["serve_warm_p50_ms"].scaled(yardRef / yServe)
		out["setup_s"] = out["setup_s"].scaled(yardRef / yAll)
	}
	return out
}

// report prints the human-readable table and, last, the result line the
// contract asks for.
func (b *bench) report(w io.Writer, defs []metricDef, metrics map[string]sample, trace bool) runRecord {
	rec := runRecord{
		Workload: b.def.Name, Seed: b.seed, Trace: trace,
		Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]sample, len(defs)),
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  ops_attempted %d  ops_failed %d\n",
		b.def.Name, b.seed, trace, b.attempted, b.failed)
	fmt.Fprintf(w, "%-30s %16s %-10s %12s %4s %12s  %s\n", "metric", "value", "unit", "mad", "n", "raw", "reps")
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]wire, len(defs))}
	missing := 0
	for _, d := range defs {
		s, ok := metrics[d.Name]
		if !ok {
			missing++
			fmt.Fprintf(w, "%-30s %16s %-10s\n", d.Name, "MISSING", d.Unit)
			continue
		}
		s.Value, s.Unit = finite(s.Value), d.Unit
		rec.Metrics[d.Name] = s
		line.Metrics[d.Name] = wire{s.Value, d.Unit}
		reps := make([]string, len(s.Reps))
		for i, v := range s.Reps {
			reps[i] = strconv.FormatFloat(v, 'g', 6, 64)
		}
		raw := "-"
		if s.Raw != 0 {
			raw = strconv.FormatFloat(s.Raw, 'g', 6, 64)
		}
		fmt.Fprintf(w, "%-30s %16s %-10s %12.6g %4d %12s  %s\n", d.Name,
			strconv.FormatFloat(s.Value, 'g', 8, 64), d.Unit, s.MAD, s.N, raw, strings.Join(reps, " "))
	}
	rec.Correct = b.failed == 0 && missing == 0 && b.attempted > 0
	line.Correct = rec.Correct
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", data)
	return rec
}

// traceFlag parses -trace 0|1 (the driver passes the value as a separate
// argument, which a boolean flag would not consume).
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the serve schedule and the gather stream")
	seconds := fs.Int("seconds", runSeconds, "measuring time of an untraced run")
	reps := fs.Int("reps", 0, "fixed repetitions of the budget-filling phase (0 = fill -seconds)")
	var trace traceFlag
	fs.Var(&trace, "trace", "0 = end-to-end metrics, untraced; 1 = per-layer metrics and a span file")
	out := fs.String("out", "", "append this run as one JSON line to the file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract, read by -compare for the bounds")
	outDir := fs.String("outdir", filepath.Join("benchmark", "out"), "scratch and span-file directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		if err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	def, ok := findWorkload(*workload)
	if !ok || fs.NArg() != 0 || *seconds < 1 {
		fmt.Fprintf(stderr, "benchmark: need -workload, one of %s\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b := &bench{
		def: def, seed: *seed, budget: time.Duration(*seconds) * time.Second, reps: *reps,
		sizes: fullSizes, outDir: *outDir, log: stderr, golden: make(map[string]artifacts),
	}
	var rec runRecord
	if trace {
		b.tr = newTracer()
		metrics := b.runTraced()
		path := filepath.Join(*outDir, def.Name+".trace.json")
		if err := b.tr.writeFile(path, def.Name); err != nil {
			b.op(fmt.Errorf("writing spans: %w", err))
		}
		rec = b.report(stdout, perLayer, metrics, true)
	} else {
		rec = b.report(stdout, endToEnd, b.runUntraced(), false)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

func appendRecord(path string, rec runRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(data, '\n'))
	return errors.Join(werr, f.Close())
}
