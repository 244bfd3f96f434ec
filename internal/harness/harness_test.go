package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"photon/internal/core"
	"photon/internal/sim/event"
	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/workloads"
)

func testGPU() gpu.Config {
	const kib = 1024
	return gpu.Config{
		Name:     "test-4cu",
		ClockGHz: 1.0,
		Compute:  timing.DefaultCompute(4),
		Memory: mem.HierarchyConfig{
			NumCUs:            4,
			CUsPerScalarBlock: 4,
			L1V:               mem.CacheConfig{Name: "l1v", SizeBytes: 16 * kib, Ways: 4, HitLatency: 28, ThroughputCycles: 1},
			L1I:               mem.CacheConfig{Name: "l1i", SizeBytes: 32 * kib, Ways: 4, HitLatency: 20, ThroughputCycles: 1},
			L1K:               mem.CacheConfig{Name: "l1k", SizeBytes: 16 * kib, Ways: 4, HitLatency: 24, ThroughputCycles: 1},
			L2:                mem.CacheConfig{Name: "l2", SizeBytes: 256 * kib, Ways: 16, HitLatency: 80, ThroughputCycles: 2},
			L2Banks:           8,
			DRAM:              mem.DRAMConfig{Name: "dram", Banks: 16, Latency: 250, BurstCycles: 8},
		},
	}
}

func TestRunAppAggregates(t *testing.T) {
	app, err := workloads.BuildPageRank(8 * 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunApp(testGPU(), app, gpu.FullRunner{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerKernel) != len(app.Launches) {
		t.Fatalf("per-kernel rows %d != launches %d", len(res.PerKernel), len(app.Launches))
	}
	var sum uint64
	for _, k := range res.PerKernel {
		sum += k.Insts
	}
	if sum != res.Insts || res.KernelTime == 0 {
		t.Fatalf("aggregation wrong: %+v", res)
	}
}

// TestAppObsLanesIsInert pins the one surviving lane-engine identifier as
// dead weight: a lane request must not change anything a run reports, so the
// field cannot quietly grow behaviour again before it is removed.
func TestAppObsLanesIsInert(t *testing.T) {
	run := func(ao AppObs) AppResult {
		app, err := workloads.BuildFIR(384)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunAppInstrumented(t.Context(), testGPU(), app, gpu.FullRunner{}, ao)
		if err != nil {
			t.Fatal(err)
		}
		return fixWall(res)
	}
	if plain, four := run(AppObs{}), run(AppObs{Lanes: 4}); !reflect.DeepEqual(plain, four) {
		t.Fatalf("AppObs.Lanes changed the result:\n   plain: %+v\nLanes: 4: %+v", plain, four)
	}
}

// brokenRunner runs a kernel in full detail and then spoils what it leaves
// behind — the shape of simulator bug the inline audit exists to catch.
type brokenRunner struct {
	spoil func(*gpu.GPU, *gpu.KernelResult)
}

func (brokenRunner) Name() string { return "broken" }

func (b brokenRunner) Plan(*gpu.GPU, *kernel.Launch) (*gpu.Plan, error) {
	return &gpu.Plan{Execute: func(g *gpu.GPU, l *kernel.Launch) (gpu.KernelResult, error) {
		res, err := gpu.RunKernel(gpu.FullRunner{}, g, l)
		b.spoil(g, &res)
		return res, err
	}}, nil
}

// TestCheckFailsTheViolatingKernel: under AppObs.Check a result reporting
// fewer instructions than warps, and a hierarchy whose conservation
// equations no longer balance, each fail the run with an error naming the
// kernel; without Check the same runs pass unaudited.
func TestCheckFailsTheViolatingKernel(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		spoil      func(*gpu.GPU, *gpu.KernelResult)
	}{
		{"insts", "0 instructions reported for", func(_ *gpu.GPU, r *gpu.KernelResult) { r.Insts = 0 }},
		{"conservation", "audit: mem: L2 accesses", func(g *gpu.GPU, _ *gpu.KernelResult) {
			// mem offers no way to unbalance its counters, so reach in: one
			// atomic that never arrived at L2.
			f := reflect.ValueOf(g.Hierarchy()).Elem().FieldByName("atomicAccesses")
			*(*uint64)(unsafe.Pointer(f.UnsafeAddr()))++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, check := range []bool{false, true} {
				app, err := workloads.BuildFIR(384)
				if err != nil {
					t.Fatal(err)
				}
				_, err = RunAppInstrumented(t.Context(), testGPU(), app, brokenRunner{tc.spoil}, AppObs{Check: check})
				if !check {
					if err != nil {
						t.Fatalf("unaudited run failed: %v", err)
					}
					continue
				}
				where := app.Name + "/" + app.Launches[0].Name + " under broken: audit:"
				if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("audited run: got %v, want an error containing %q and %q", err, where, tc.want)
				}
			}
		})
	}
}

func TestComparisonMetrics(t *testing.T) {
	c := Comparison{
		Full:    AppResult{KernelTime: 1000, Wall: 10 * time.Second},
		Sampled: AppResult{KernelTime: 1100, Wall: 2 * time.Second},
	}
	if c.ErrPct() != 10 {
		t.Fatalf("ErrPct = %v", c.ErrPct())
	}
	if c.Speedup() != 5 {
		t.Fatalf("Speedup = %v", c.Speedup())
	}
}

func TestTableOutputs(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"R9 Nano", "MI100", "64 per GPU", "120 per GPU", "4GB", "32GB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
	buf.Reset()
	Table2(&buf)
	out = buf.String()
	for _, want := range []string{"AES", "Hetero-Mark", "SHOC", "PageRank", "ResNet"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q", want)
		}
	}
}

// TestFactories: every row of the mode table builds a runner that names
// itself, and an unknown mode's error lists the table.
func TestFactories(t *testing.T) {
	cfg := testGPU()
	want := map[string]string{
		BaselineMode: gpu.TierFull, "photon": "photon", "bb": core.TierBB, "warp": core.TierWarp,
		"kernel": core.TierKernel, "pka": "pka", "tbpoint": "tbpoint",
	}
	if names := ModeNames(); len(names) != len(want) || names[0] != BaselineMode {
		t.Fatalf("ModeNames() = %v, want the %d modes, baseline first", names, len(want))
	}
	for _, name := range ModeNames() {
		f, err := FactoryForMode(name, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got := f.New(cfg).Name(); got != want[name] || f.Label != "" {
			t.Errorf("mode %s builds runner %q labelled %q, want %q and no label", name, got, f.Label, want[name])
		}
	}
	_, err := FactoryForMode("bogus", core.DefaultParams())
	if err == nil || !strings.Contains(err.Error(), "(want "+strings.Join(ModeNames(), "|")+")") {
		t.Errorf("unknown mode error = %v, want the table's names", err)
	}
}

func TestPrintRowFormat(t *testing.T) {
	var buf bytes.Buffer
	PrintHeader(&buf)
	PrintRow(&buf, Comparison{
		Bench: "MM", Size: 1024, Runner: "photon",
		Full:    AppResult{KernelTime: 2000, Wall: 4 * time.Second},
		Sampled: AppResult{KernelTime: 1900, Wall: time.Second},
	})
	out := buf.String()
	for _, want := range []string{"bench", "speedup", "MM", "photon", "5.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("row output missing %q:\n%s", want, out)
		}
	}
}

func TestObservationDistributions(t *testing.T) {
	if testing.Short() {
		t.Skip("functional sweeps take a few seconds")
	}
	var buf bytes.Buffer
	if err := Fig8(&buf, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := Fig11(&buf, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 8", "Figure 11", "SC", "SpMV", "L1 divergence"} {
		if !strings.Contains(out, want) {
			t.Errorf("observation output missing %q", want)
		}
	}
}

// TestStaleKernel: the functional check is skipped exactly when a kernel's
// runner reported it Stale, whatever its tier.
func TestStaleKernel(t *testing.T) {
	row := func(name string, stale bool) KernelRow {
		return KernelRow{Name: name, KernelResult: gpu.KernelResult{Mode: "some-tier", Stale: stale}}
	}
	for _, stale := range []bool{false, true} {
		res := AppResult{PerKernel: []KernelRow{row("a", false), row("b", stale), row("c", stale)}}
		k, got := res.StaleKernel()
		if got != stale || (stale && k.Name != "b") {
			t.Errorf("StaleKernel with Stale=%v on b and c = %+v, %v; want the first stale row", stale, k, got)
		}
	}
}

func TestFitPairs(t *testing.T) {
	var ps [][2]event.Time
	for i := int64(0); i < 100; i++ {
		ps = append(ps, [2]event.Time{event.Time(i * 10), event.Time(i*10 + 500)})
	}
	a, b := fitPairs(ps)
	if a < 0.999 || a > 1.001 {
		t.Fatalf("slope = %v", a)
	}
	if b < 499 || b > 501 {
		t.Fatalf("intercept = %v", b)
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	c := Comparison{
		Bench: "MM", Size: 64, Runner: "photon",
		Full: AppResult{KernelTime: 100, Wall: time.Second},
		Sampled: AppResult{KernelTime: 90, Wall: time.Second / 2,
			PerKernel: []KernelRow{{Name: "mm", KernelResult: gpu.KernelResult{Mode: "bb-sampling", SimTime: 90}}}},
	}
	if err := sink.Emit(ToRecord("fig13", c)); err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Experiment != "fig13" || rec.Bench != "MM" || rec.ErrPct != 10 || rec.Speedup != 2 {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.PerKernel) != 1 || rec.PerKernel[0].Mode != "bb-sampling" {
		t.Fatalf("per-kernel rows = %+v", rec.PerKernel)
	}
	// Nil sinks discard silently.
	if err := NewJSONSink(nil).Emit(Record{}); err != nil {
		t.Fatal(err)
	}
	var nilSink *JSONSink
	if err := nilSink.Emit(Record{}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Experiment: "fig13", Bench: "MM", Runner: "full", ErrPct: 0, Speedup: 1},
		{Experiment: "fig13", Bench: "MM", Runner: "photon", ErrPct: 5, Speedup: 2},
		{Experiment: "fig13", Bench: "AES", Runner: "photon", ErrPct: 15, Speedup: 8},
		{Experiment: "fig13", Bench: "MM", Runner: "pka", ErrPct: 80, Speedup: 6},
	}
	sums := Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2 (full excluded)", len(sums))
	}
	ph := sums[0]
	if ph.Runner != "photon" { // sorted: photon < pka
		ph = sums[1]
	}
	if ph.Rows != 2 || ph.MeanErrPct != 10 || ph.MaxErrPct != 15 {
		t.Fatalf("photon summary = %+v", ph)
	}
	if ph.GeoMeanSpeedup < 3.99 || ph.GeoMeanSpeedup > 4.01 {
		t.Fatalf("geomean = %v, want 4", ph.GeoMeanSpeedup)
	}
	if ph.MaxSpeedup != 8 {
		t.Fatalf("max speedup = %v", ph.MaxSpeedup)
	}
}

func TestReadRecordsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	for i := 0; i < 3; i++ {
		if err := sink.Emit(Record{Experiment: "x", Bench: "B", Runner: "photon", ErrPct: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadJSONLines[Record](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].ErrPct != 2 {
		t.Fatalf("records = %+v", recs)
	}
	var out bytes.Buffer
	PrintSummaries(&out, Summarize(recs))
	if !strings.Contains(out.String(), "photon") {
		t.Fatal("summary table missing runner")
	}
}

// countRecords reads data strictly as records of type T.
func countRecords[T any](data []byte) (int, error) {
	recs, err := ReadJSONLines[T](bytes.NewReader(data))
	return len(recs), err
}

// Every committed artifact parses strictly as its own record type, one
// record per line, and fails as the other: a ledger is not a -json file.
func TestReadJSONLinesIsStrict(t *testing.T) {
	results, err := filepath.Glob("../../results/*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := filepath.Glob("testdata/*.jsonl")
	checked := 0
	for _, p := range append(results, golden...) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		own, other := countRecords[Record], countRecords[AccuracyRecord]
		if strings.HasSuffix(p, ".accuracy.jsonl") {
			own, other = other, own
		}
		if n, err := own(data); err != nil || n != bytes.Count(data, []byte("\n")) {
			t.Errorf("%s: %d records, err %v; want one per line", p, n, err)
		}
		if _, err := other(data); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s read as the other record type: err %v, want an unknown field", p, err)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("checked %d artifacts, want every non-empty committed one", checked)
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("sparkline = %q", s)
	}
	if got := sparkline([]float64{5, 5, 5}, 3); got != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
	if sparkline(nil, 10) != "" {
		t.Fatal("empty input should render empty")
	}
	// Downsampling: 100 points into 10 buckets.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := sparkline(xs, 10); len([]rune(got)) != 10 {
		t.Fatalf("downsampled width = %d", len([]rune(got)))
	}
}

func TestShortMode(t *testing.T) {
	cases := map[string]string{
		"kernel-sampling": "K", "warp-sampling": "W", "bb-sampling": "BB",
		"full": "F", "pka-sampled": "pka-sampled",
	}
	for in, want := range cases {
		if got := shortMode(in); got != want {
			t.Errorf("shortMode(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRealWorldBuildsQuick(t *testing.T) {
	o := DefaultOptions()
	full := realWorldPoints(o)
	if len(full) != 8 {
		t.Fatalf("full app list = %d, want 8", len(full))
	}
	o.Quick = true
	if q := realWorldPoints(o); len(q) >= len(full) {
		t.Fatal("quick mode did not trim the app list")
	}
	if full[0].Bench != "PR-64K" || full[0].Size != o.PRNodes {
		t.Fatalf("first app = %s/%d, want PR-64K at the PRNodes size", full[0].Bench, full[0].Size)
	}
	if full[7].Bench != "ResNet-152" {
		t.Fatalf("last app = %s, want ResNet-152", full[7].Bench)
	}
}

func TestOptionsSizes(t *testing.T) {
	spec := workloads.Spec{Sizes: []int{1, 2, 3, 4}}
	o := DefaultOptions()
	if got := o.sizes(spec); len(got) != 4 {
		t.Fatalf("full sizes = %v", got)
	}
	o.Quick = true
	got := o.sizes(spec)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("quick sizes = %v, want [3] (mid-grid)", got)
	}
}
