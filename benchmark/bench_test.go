package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables keeps BENCHMARK.json and the tables in spec.go
// from drifting apart, and inside the contract's limits.
func TestContractMatchesTables(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(c.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code says %d", c.RunSeconds, runSeconds)
	}

	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range workloadDefs {
		cw := c.Workloads[i]
		if cw.Name != w.Name || cw.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, cw.Name, cw.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, defs []metricDef, rows []contractMetric, bounded bool) {
		t.Helper()
		if len(defs) != len(rows) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(rows), len(defs))
		}
		for i, d := range defs {
			r := rows[i]
			if r.Name != d.Name || r.Unit != d.Unit || r.Better != d.Better || r.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, r, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
			if !bounded && d.Bound != 0 {
				t.Errorf("per-layer metric %s carries a bound", d.Name)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd, true)
	check("per_layer", perLayer, c.PerLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	setup := endToEnd[len(endToEnd)-1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("last end-to-end metric must be setup_s in s, lower is better; have %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
}

// TestNamedWorkloadsAreWellFormed checks what can be checked about the five
// real workloads without simulating them: apps build, the catalogue expands
// and both workers own part of it.
func TestNamedWorkloadsAreWellFormed(t *testing.T) {
	for _, w := range workloadDefs {
		if len(w.Apps) == 0 {
			t.Errorf("%s: no apps", w.Name)
		}
		if (w.SimReps == 0) == (w.ServeReps == 0) {
			t.Errorf("%s: exactly one phase must fill the budget (SimReps %d, ServeReps %d)", w.Name, w.SimReps, w.ServeReps)
		}
		for _, a := range w.Apps {
			app, err := a.Build()
			if err != nil {
				t.Errorf("%s: %s: %v", w.Name, a.Name, err)
				continue
			}
			if len(app.Launches) == 0 || app.TotalWarps() == 0 {
				t.Errorf("%s: %s builds an empty app", w.Name, a.Name)
			}
		}
		keys, err := catalogue(w.Serve)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		owned := map[int]int{}
		hashes := map[string]bool{}
		for _, k := range keys {
			owned[k.owner]++
			hashes[k.hash] = true
		}
		if len(hashes) != len(keys) || len(owned) != numWorkers {
			t.Errorf("%s: %d keys, %d distinct, owners %v", w.Name, len(keys), len(hashes), owned)
		}
		if w.Serve.WarmTrips < 2 {
			t.Errorf("%s: warm pass of %d trips", w.Name, w.Serve.WarmTrips)
		}
	}
}

// tinyWorkload has the shape of a real workload at a size tier-1 can afford:
// two small cells simulated directly, and the same two served in two modes
// (on mi100, where the ring splits the four keys 2/2 between the workers).
func tinyWorkload() workloadDef {
	cells := []cell{{"HIST", 4096}, {"SC", 384}}
	hist := table2("HIST", 4096)
	hist.Atomics = true
	return workloadDef{
		Name: "tiny", Why: "test",
		Apps:      []appSpec{hist, table2("SC", 384)},
		Serve:     serveShape{Cells: cells, Archs: []string{"mi100"}, Modes: []string{"photon", "pka"}, WarmTrips: 40},
		ServeReps: 1,
	}
}

var testSizes = microSizes{
	eventRounds: 200, memAccesses: 500, bbvIters: 500, engineTasks: 200, baselineHits: 200,
	flightEvents: 1000, ringLookups: 500, submitHits: 50, casPuts: 4, casGets: 20, lanedPairs: 1,
}

func tinyBench(t *testing.T) *bench {
	t.Helper()
	return &bench{
		def: tinyWorkload(), seed: 7, budget: time.Second, reps: 2, sizes: testSizes,
		outDir: t.TempDir(), log: io.Discard, golden: make(map[string]artifacts),
	}
}

// resultLine decodes the last line of a report: the contract's result object.
func resultLine(t *testing.T, out []byte) (correct bool, attempted, failed int, metrics map[string]struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(line[key], dst); err != nil {
			t.Fatalf("result line key %q: %v", key, err)
		}
	}
	return correct, attempted, failed, metrics
}

func TestUntracedRunEmitsEveryEndToEndMetric(t *testing.T) {
	b := tinyBench(t)
	var out bytes.Buffer
	rec := b.report(&out, endToEnd, b.runUntraced(), false)
	correct, attempted, failed, metrics := resultLine(t, out.Bytes())
	if !correct || failed != 0 || attempted < 1 || !rec.Correct {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", correct, attempted, failed, out.String())
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the result line, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s missing or malformed: %+v", d.Name, m)
			continue
		}
		if *m.Value <= 0 || math.IsInf(*m.Value, 0) {
			t.Errorf("metric %s = %v, end-to-end metrics are never 0", d.Name, *m.Value)
		}
	}
	// 2 apps × 2 modes × 2 reps simulations; 4 keys submitted twice, 40 warm trips.
	if want := 8 + 8 + 40; attempted != want {
		t.Errorf("attempted %d operations, want %d", attempted, want)
	}
	if got := rec.Metrics["detailed_wall_s"]; got.N != 2 || len(got.Reps) != 2 {
		t.Errorf("detailed_wall_s carries n=%d reps=%v, want the 2 repetitions", got.N, got.Reps)
	}
	// Time metrics are reported at reference host speed, the clock's reading
	// kept beside them; the deterministic accuracy is not touched.
	for _, d := range endToEnd {
		m := rec.Metrics[d.Name]
		if normalised := d.Name != "photon_accuracy_pct"; normalised != (m.Raw > 0) {
			t.Errorf("%s: raw = %v", d.Name, m.Raw)
		}
	}
	if len(b.yardSim) == 0 || len(b.yardServe) != 6 {
		t.Errorf("yardstick read %d times in the simulation phase and %d in one serve repetition", len(b.yardSim), len(b.yardServe))
	}
	left, err := os.ReadDir(b.outDir)
	if err != nil || len(left) != 0 {
		t.Errorf("run left %d entries in its scratch directory (err %v)", len(left), err)
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	b := tinyBench(t)
	b.tr = newTracer()
	var out bytes.Buffer
	metrics := b.runTraced()
	rec := b.report(&out, perLayer, metrics, true)
	correct, _, failed, line := resultLine(t, out.Bytes())
	if !correct || failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", correct, failed, out.String())
	}
	for _, d := range perLayer {
		if m, ok := line[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s missing or malformed: %+v", d.Name, m)
		}
	}
	if len(line) != len(perLayer) {
		t.Errorf("%d metrics on the result line, want %d", len(line), len(perLayer))
	}

	// Counts that must repeat bit for bit.
	exact := map[string]float64{
		"workloads.kernels": 2, "workloads.warps": 4096 + 384,
		"serve.executed": 4, "serve.cas_puts": 4, "serve.coalesced": 2, "serve.cas_evictions": 0,
		"cluster.steals": 0, "cluster.reroutes": 0,
	}
	for name, want := range exact {
		if got := rec.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Work is counted where it is timed: the functional pass's own
	// instruction count over its own wall, equal to the stated input size.
	fnInsts := rec.Metrics["emu.functional_minst_per_s"].Value * 1e6 * rec.Metrics["emu.functional_wall_s"].Value
	if insts := rec.Metrics["workloads.insts"].Value; math.Abs(fnInsts-insts) > 0.5 {
		t.Errorf("functional pass counted %.0f instructions, workloads.insts = %.0f", fnInsts, insts)
	}
	if hop := rec.Metrics["cluster.hop_p50_ms"].Value; hop <= 0 {
		t.Errorf("cluster.hop_p50_ms = %v, the routed path cannot be faster than the direct one", hop)
	}

	path := filepath.Join(b.outDir, "tiny.trace.json")
	if err := b.tr.writeFile(path, "tiny"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	reqs := map[string]int{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Name == "serve.submit" || s.Name == "serve.result" {
			reqs[s.Req]++
		}
	}
	for _, want := range []string{"workloads.build", "harness.RunApp.detailed", "harness.RunApp.photon",
		"harness.RunApp.functional", "event.run", "mem.gather", "serve.cold_pass", "serve.warm_pass",
		"serve.direct_pass", "serve.request", "serve.submit", "serve.status", "serve.result"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
	for req, n := range reqs {
		if n != 2 {
			t.Errorf("request %s has %d submit+result spans, want one of each", req, n)
		}
	}
	if tf.SelfNS["serve.request"] <= 0 || tf.SelfNS["harness.RunApp.detailed"] <= 0 {
		t.Errorf("self times missing: %v", tf.SelfNS)
	}
}

func TestYardstickDoesFixedWork(t *testing.T) {
	first := yardstick()
	sum := sinkYard
	second := yardstick()
	if first <= 0 || second <= 0 || sinkYard != sum {
		t.Errorf("yardstick took %v then %v and computed %d then %d", first, second, sum, sinkYard)
	}
	s := sample{Value: 2, MAD: 0.5, N: 2, Reps: []float64{1, 3}}.scaled(0.5)
	if s.Value != 1 || s.Raw != 2 || s.MAD != 0.25 || s.Reps[1] != 1.5 {
		t.Errorf("scaled sample = %+v", s)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}}
	self := tr.selfTimes()
	if self["parent"] != 100-60-10 {
		t.Errorf("parent self time = %d, want 30", self["parent"])
	}
	if self["child"] != 40+40+30 {
		t.Errorf("child self time = %d, want 110", self["child"])
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if m := mad([]float64{1, 2, 3, 4, 100}); m != 1 {
		t.Errorf("mad = %v", m)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
	if m := median([]float64{1, math.Inf(1), 2}); m != 2 {
		t.Errorf("median with a failed sample = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if s := quartileSpread(xs); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartile spread = %v", s)
	}
	if v := finite(math.Inf(1)); math.IsInf(v, 0) {
		t.Errorf("finite(+Inf) = %v", v)
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 0.995, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2, c} }
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", tight(10), tight(10), "lower", verdictPass},
		{"slower within bound", tight(10), tight(10.5), "lower", verdictPass},
		{"slower beyond bound", tight(10), tight(11.5), "lower", verdictFail},
		{"faster", tight(10), tight(5), "lower", verdictPass},
		{"throughput dropped", tight(10), tight(8), "higher", verdictFail},
		{"throughput rose", tight(10), tight(12), "higher", verdictPass},
		{"noisy and equal", wide(10), wide(10), "lower", verdictUnresolved},
		{"noisy but every run better", wide(10), tight(5), "lower", verdictPass},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 4; i++ {
			rec := runRecord{Workload: "dense_compute", Seed: int64(i), Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]sample{"detailed_wall_s": {Value: wall * (1 + 0.01*float64(i)), Unit: "s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	a, same, slow, broken := write("a", 1.0, 0), write("same", 1.02, 0), write("slow", 1.5, 0), write("broken", 1.0, 1)

	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, same); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "detailed_wall_s") || !strings.Contains(out.String(), verdictPass) {
		t.Errorf("comparison table lacks the metric row:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, slow); err == nil || !strings.Contains(out.String(), verdictFail) {
		t.Errorf("a 50%% slowdown passed (err %v):\n%s", err, out.String())
	}
	if err := compareFiles(io.Discard, spec, a, broken); err == nil {
		t.Error("runs with failed operations compared clean")
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "no_such_workload"},
		{"-workload", "dense_compute", "-seconds", "0"},
		{"-workload", "dense_compute", "-trace", "maybe"},
		{"-compare", "only-one.jsonl"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with %d bytes on stdout, want a failure and no result", args, code, stdout.Len())
		}
	}
	var tf traceFlag
	if err := tf.Set("1"); err != nil || !bool(tf) {
		t.Errorf("-trace 1 parsed as %v, %v", tf, err)
	}
	if err := tf.Set("0"); err != nil || bool(tf) {
		t.Errorf("-trace 0 parsed as %v, %v", tf, err)
	}
	if v := goVersionNumber("go1.24.3"); v != 12403 {
		t.Errorf("goVersionNumber = %v", v)
	}
}
