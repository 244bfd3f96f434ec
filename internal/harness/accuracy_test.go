package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/obs"
)

// runAccuracySweep runs the determinism sweep with the accuracy ledger
// attached and returns the JSONL bytes, the sink, and the sweep's records.
func runAccuracySweep(t *testing.T, parallel int) ([]byte, *AccuracySink, []Record) {
	t.Helper()
	var text, jsonBuf, accBuf bytes.Buffer
	o := DefaultOptions()
	o.Parallel = parallel
	o.FixedWall = true
	o.JSON = NewJSONSink(&jsonBuf)
	o.Baselines = NewBaselineCache()
	o.Accuracy = NewAccuracySink(&accBuf)
	if err := o.RunSweep(&text, detSweep(o)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONLines[Record](&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	return accBuf.Bytes(), o.Accuracy, recs
}

// TestAccuracyLedgerRoundTrip is the satellite schema check: every ledger
// line parses back, and per sampled run the tier counts sum to that run's
// total kernel count.
func TestAccuracyLedgerRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small simulations")
	}
	raw, sink, recs := runAccuracySweep(t, 4)
	ledger, err := ReadJSONLines[AccuracyRecord](bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) == 0 {
		t.Fatal("empty accuracy ledger")
	}
	if sink.Kernels() != len(ledger) {
		t.Fatalf("sink counted %d kernels, ledger has %d", sink.Kernels(), len(ledger))
	}

	validTiers := map[string]bool{
		"full": true, "bb-sampling": true, "warp-sampling": true, "kernel-sampling": true,
	}
	// Count ledger entries per (bench, runner) and check field sanity.
	counts := map[string]int{}
	for i, r := range ledger {
		if !validTiers[r.Tier] {
			t.Errorf("record %d: unknown tier %q", i, r.Tier)
		}
		if r.Kernel == "" || r.Bench == "" || r.Runner == "" {
			t.Errorf("record %d: missing identity fields: %+v", i, r)
		}
		if r.PredictedCycles <= 0 || r.Insts == 0 {
			t.Errorf("record %d: missing measurements: %+v", i, r)
		}
		if r.DetailedCycles > 0 && r.ErrPct < 0 {
			t.Errorf("record %d: negative error: %+v", i, r)
		}
		counts[r.Bench+"/"+r.Runner]++
	}

	// Tiers sum to total kernels: for every sampled sweep row that has a
	// decision ledger (Photon), the ledger must hold exactly one record per
	// kernel of that row.
	photonRows := 0
	for _, rec := range recs {
		if rec.Runner != "photon" {
			continue
		}
		photonRows++
		key := rec.Bench + "/" + rec.Runner
		if counts[key] != rec.Kernels {
			t.Errorf("%s: ledger has %d records, sweep row reports %d kernels", key, counts[key], rec.Kernels)
		}
	}
	if photonRows == 0 {
		t.Fatal("sweep produced no photon rows")
	}

	// Baseline alignment: detailed cycles must be present (the sweep always
	// simulates the full baseline) and error attribution consistent.
	withBaseline := 0
	for _, r := range ledger {
		if r.DetailedCycles > 0 {
			withBaseline++
		}
	}
	if withBaseline == 0 {
		t.Fatal("no ledger record carries baseline cycles")
	}
}

// TestAccuracyLedgerDeterministic: ledger bytes are part of the
// deterministic surface (plan-order emission), so worker count must not
// change them.
func TestAccuracyLedgerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small simulations")
	}
	raw1, _, _ := runAccuracySweep(t, 1)
	raw8, _, _ := runAccuracySweep(t, 8)
	if !bytes.Equal(raw1, raw8) {
		t.Fatalf("accuracy ledger differs across worker counts:\n--- serial ---\n%s--- parallel ---\n%s", raw1, raw8)
	}
}

func TestAccuracySinkRollup(t *testing.T) {
	s := NewAccuracySink(nil)
	recs := []AccuracyRecord{
		{Bench: "FIR", Runner: "photon", TierDecision: core.TierDecision{Kernel: "fir", Index: 0, Tier: "bb-sampling",
			PredictedCycles: 102, DetailedCycles: 100, ErrPct: 2}},
		{Bench: "FIR", Runner: "photon", TierDecision: core.TierDecision{Kernel: "fir", Index: 1, Tier: "kernel-sampling",
			PredictedCycles: 95, DetailedCycles: 100, ErrPct: 5}},
		{Bench: "FIR", Runner: "photon", TierDecision: core.TierDecision{Kernel: "fir", Index: 2, Tier: "bb-sampling",
			PredictedCycles: 10, Insts: 1}},
	}
	for _, r := range recs {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Kernels() != 3 {
		t.Fatalf("Kernels() = %d", s.Kernels())
	}
	sum := s.Summary()
	for _, want := range []string{"3 kernels", "bb-sampling 2", "kernel-sampling 1", "mean |err| 3.50%", "max 5.00%", "#1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
	reg := obs.NewRegistry()
	s.PublishGauges(reg)
	snap := reg.Snapshot()
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		name := g.Name
		if tier := g.Labels["tier"]; tier != "" {
			name += "{" + tier + "}"
		}
		gauges[name] = g.Value
	}
	if gauges["photon_accuracy_kernels_total{bb-sampling}"] != 2 {
		t.Errorf("bb gauge = %v", gauges)
	}
	if gauges["photon_accuracy_mean_err_pct"] != 3.5 {
		t.Errorf("mean gauge = %v", gauges)
	}
	if gauges["photon_accuracy_max_err_pct"] != 5 {
		t.Errorf("max gauge = %v", gauges)
	}
}

func TestAccuracySinkNilSafe(t *testing.T) {
	var s *AccuracySink
	if err := s.Emit(AccuracyRecord{}); err != nil {
		t.Fatal(err)
	}
	if s.Kernels() != 0 || s.Summary() != "" {
		t.Fatal("nil sink must be inert")
	}
	s.PublishGauges(obs.NewRegistry())
}

// TestAccuracyNoBaselineRoundTrip pins the no-baseline contract across the
// whole pipeline: a record with DetailedCycles 0 (no full-detailed kernel
// lined up) serializes without detailed_cycles/err_pct keys, parses back,
// and is treated by every consumer — sink roll-up, photon-report -accuracy
// and photon-ctl accuracy -summary, both of which call SummarizeAccuracy —
// as "no baseline", never as a perfect 0% error.
func TestAccuracyNoBaselineRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewAccuracySink(&buf)
	recs := []AccuracyRecord{
		{Bench: "Xfmr-L2", Runner: "photon", TierDecision: core.TierDecision{Kernel: "L1.ln1", Index: 0, Tier: "full",
			PredictedCycles: 120, DetailedCycles: 100, ErrPct: 20, Insts: 10}},
		// The satellite's record shape: a sampled kernel with no baseline.
		{Bench: "Xfmr-L2", Runner: "photon", TierDecision: core.TierDecision{Kernel: "L2.ln1", Index: 9, Tier: "kernel-sampling",
			PredictedCycles: 100, Insts: 10}},
	}
	for _, r := range recs {
		if err := s.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	// Emit's guard: the baseline-less record contributes to Kernels but not
	// to the error distribution, so the mean stays the first record's 20%.
	sum := s.Summary()
	for _, want := range []string{"2 kernels", "mean |err| 20.00%", "max 20.00%"} {
		if !strings.Contains(sum, want) {
			t.Errorf("sink summary missing %q: %s", want, sum)
		}
	}
	// Serialization: omitempty must drop the zero baseline fields so the
	// ledger never shows a spurious err_pct:0 that reads as "0% error".
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("ledger lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for _, key := range []string{"detailed_cycles", "err_pct"} {
		if strings.Contains(lines[1], key) {
			t.Errorf("no-baseline record must omit %q: %s", key, lines[1])
		}
	}

	back, err := ReadJSONLines[AccuracyRecord](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("round trip changed records:\ngot  %+v\nwant %+v", back, recs)
	}
	sums := SummarizeAccuracy(back)
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	got := sums[0]
	if got.Kernels != 2 || got.Tiers["kernel-sampling"] != 1 {
		t.Fatalf("summary counts wrong: %+v", got)
	}
	// The readers' guard, same as Emit's: mean/max over baselined records
	// only. Were the zero DetailedCycles counted, the mean would halve.
	if got.meanErr() != 20 || got.MaxErr != 20 {
		t.Fatalf("no-baseline record leaked into error stats: mean %v max %v, want 20/20",
			got.meanErr(), got.MaxErr)
	}
}

func TestReadAccuracyRecordsRejectsGarbage(t *testing.T) {
	_, err := ReadJSONLines[AccuracyRecord](strings.NewReader("{\"bench\":\"FIR\"}\nnot json\n"))
	if err == nil {
		t.Fatal("malformed line must error")
	}
	recs, err := ReadJSONLines[AccuracyRecord](strings.NewReader("\n{\"bench\":\"FIR\",\"runner\":\"photon\"}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Bench != "FIR" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestSummarizeAccuracy(t *testing.T) {
	recs := []AccuracyRecord{
		{Bench: "FIR", Runner: "photon", TierDecision: core.TierDecision{Tier: "bb-sampling", DetailedCycles: 100, ErrPct: 2}},
		{Bench: "FIR", Runner: "photon", TierDecision: core.TierDecision{Tier: "full"}},
		{Bench: "MM", Runner: "photon", TierDecision: core.TierDecision{Tier: "kernel-sampling", DetailedCycles: 50, ErrPct: 6}},
	}
	sums := SummarizeAccuracy(recs)
	type row struct {
		bench   string
		kernels int
		tiers   map[string]int
		mean    float64
		max     float64
	}
	var got []row
	for _, s := range sums {
		got = append(got, row{s.Bench, s.Kernels, s.Tiers, s.meanErr(), s.MaxErr})
	}
	want := []row{
		{"FIR", 2, map[string]int{"bb-sampling": 1, "full": 1}, 2, 2},
		{"MM", 1, map[string]int{"kernel-sampling": 1}, 6, 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	var buf bytes.Buffer
	PrintAccuracySummaries(&buf, sums)
	out := buf.String()
	if !strings.Contains(out, "mean_err%") || !strings.Contains(out, "FIR") {
		t.Fatalf("table output: %s", out)
	}
}
