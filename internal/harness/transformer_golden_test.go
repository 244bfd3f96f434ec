package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
)

// The transformer golden files pin the quick transformer/training-step
// sweep's exact output — text rows, JSONL records, and the per-kernel
// accuracy ledger — the same way the fig13 goldens pin the classic
// benchmarks.
//
// Regenerate all three with:
//
//	PHOTON_GOLDEN=1 go test ./internal/harness -run TestTransformer.*Golden
const (
	xfmrGoldenTxt   = "testdata/transformer_quick.golden.txt"
	xfmrGoldenJSONL = "testdata/transformer_quick.golden.jsonl"
	xfmrGoldenAcc   = "testdata/transformer_quick.golden.accuracy.jsonl"
)

// xfmrRunnerOrder is the plan order of every transformer sweep cell: the
// implicit full baseline, then the experiment's two sampled factories.
var xfmrRunnerOrder = []string{"full", "kernel-sampling", "photon"}

// runTransformerQuick runs the quick transformer envelope and returns the
// text, JSONL and accuracy-ledger bytes as photon-bench would emit them. log
// may be nil (unobserved).
func runTransformerQuick(t *testing.T, parallel int, log *obs.Logger) (txt, jsonl, acc []byte) {
	t.Helper()
	var txtBuf, jsonBuf, accBuf bytes.Buffer
	o := DefaultOptions()
	o.Quick = true
	o.FixedWall = true
	o.Parallel = parallel
	o.Baselines = NewBaselineCache()
	o.JSON = NewJSONSink(&jsonBuf)
	o.Accuracy = NewAccuracySink(&accBuf)
	o.Log = log
	if err := TransformerEnvelope(&txtBuf, o); err != nil {
		t.Fatal(err)
	}
	// photon-bench prints a blank separator line after each experiment; the
	// goldens are captured from its stdout.
	txtBuf.WriteByte('\n')
	return txtBuf.Bytes(), jsonBuf.Bytes(), accBuf.Bytes()
}

// TestTransformerGoldenArtifacts validates the committed golden set:
// parseable records of the expected sweep shape, text/JSONL agreement, and a
// ledger whose kernel-sampling tier actually fired — the experiment's
// headline claim is that repeated transformer layers collapse onto the first
// layer's measurements, and a golden where that never happens is wrong even
// if internally consistent.
func TestTransformerGoldenArtifacts(t *testing.T) {
	jf, err := os.Open(filepath.FromSlash(xfmrGoldenJSONL))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	recs, err := ReadJSONLines[Record](jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs)%len(xfmrRunnerOrder) != 0 {
		t.Fatalf("golden has %d records, want a positive multiple of %d", len(recs), len(xfmrRunnerOrder))
	}
	txt, err := os.ReadFile(filepath.FromSlash(xfmrGoldenTxt))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(txt), "\n"), "\n")
	// "# ..." title + column line + one row per record.
	if want := 2 + len(recs); len(lines) != want {
		t.Fatalf("golden txt has %d lines, want %d (2 header + %d rows)", len(lines), want, len(recs))
	}
	benches := map[string]bool{}
	for i, r := range recs {
		if r.Experiment != "transformer" {
			t.Fatalf("record %d experiment = %q, want transformer", i, r.Experiment)
		}
		if want := xfmrRunnerOrder[i%len(xfmrRunnerOrder)]; r.Runner != want {
			t.Fatalf("record %d runner = %q, want %q (plan order)", i, r.Runner, want)
		}
		if r.Runner == "full" && r.SimCycles != r.FullCycles {
			t.Fatalf("record %d: full runner sim_cycles %d != full_cycles %d", i, r.SimCycles, r.FullCycles)
		}
		row := lines[2+i]
		if !strings.HasPrefix(row, r.Bench) || !strings.Contains(row, " "+r.Runner+" ") {
			t.Fatalf("txt row %d %q does not match record %s/%s", i, row, r.Bench, r.Runner)
		}
		benches[r.Bench] = true
	}
	if !benches["TrainStep-b2"] {
		t.Fatalf("golden covers %v, missing the training-step point", benches)
	}

	acc, err := os.ReadFile(filepath.FromSlash(xfmrGoldenAcc))
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := ReadJSONLines[AccuracyRecord](bytes.NewReader(acc))
	if err != nil {
		t.Fatal(err)
	}
	// A Photon ledger names only Photon's tiers; every golden record carries
	// a baseline whose error is the relative distance to it.
	tiers := map[string]bool{gpu.TierFull: true, core.TierBB: true, core.TierWarp: true, core.TierKernel: true}
	kmatch := 0
	for i, r := range ledger {
		if !tiers[r.Tier] {
			t.Fatalf("ledger record %d: tier %q is not one of Photon's", i, r.Tier)
		}
		if r.Bench == "" || r.Runner == "" || r.Kernel == "" || r.PredictedCycles <= 0 || r.Insts == 0 {
			t.Fatalf("ledger record %d is incomplete: %+v", i, r)
		}
		if r.DetailedCycles <= 0 {
			t.Fatalf("ledger record %d has no baseline: %+v", i, r)
		}
		want := math.Abs(r.PredictedCycles-r.DetailedCycles) / r.DetailedCycles * 100
		if math.Abs(r.ErrPct-want) > 1e-6 {
			t.Fatalf("ledger record %d: err_pct %v, want |predicted - detailed| / detailed = %v", i, r.ErrPct, want)
		}
		if r.Tier == core.TierKernel {
			kmatch++
		}
	}
	if kmatch == 0 {
		t.Fatalf("accuracy golden has %d records but the kernel-sampling tier never fired", len(ledger))
	}
	// A record without a baseline omits both baseline fields rather than
	// writing zeros: the golden's last record, with its baseline kernel gone.
	c := Comparison{Bench: "b", Runner: "photon",
		Sampled: AppResult{Decisions: []core.TierDecision{ledger[len(ledger)-1].TierDecision}}}
	c.Sampled.Decisions[0].DetailedCycles, c.Sampled.Decisions[0].ErrPct = 0, 0
	line, err := json.Marshal(accuracyRecords("transformer", c)[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(line, []byte(`"detailed_cycles"`)) || bytes.Contains(line, []byte(`"err_pct"`)) {
		t.Fatalf("a record without a baseline writes baseline fields: %s", line)
	}
}

// regenOrCompare byte-compares got against the committed golden, rewriting
// it first when PHOTON_GOLDEN=1 (the regeneration path).
func regenOrCompare(t *testing.T, path string, got []byte, what string) {
	t.Helper()
	p := filepath.FromSlash(path)
	if os.Getenv("PHOTON_GOLDEN") == "1" {
		if err := os.WriteFile(p, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden %s:\n%s", what, path, diffHint(got, want))
	}
}

// TestTransformerMatchesGolden re-runs the quick transformer envelope
// serially and with 4 workers: the serial artifacts must match the committed
// goldens byte-for-byte and the 4-worker run must match the serial one (the
// ledger is emitted in plan order, so worker count must not reorder it) —
// with a Debug logger and a flight ring composed into it, so the run also
// proves that the one control-plane record never perturbs an artifact.
// The quick stack is small, so unlike fig13 this runs in every `go test`.
func TestTransformerMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick transformer sweep")
	}
	txt, jsonl, acc := runTransformerQuick(t, 1, nil)
	regenOrCompare(t, xfmrGoldenTxt, txt, "transformer text output")
	regenOrCompare(t, xfmrGoldenJSONL, jsonl, "transformer JSONL records")
	regenOrCompare(t, xfmrGoldenAcc, acc, "transformer accuracy ledger")

	flight := obs.NewFlightRecorder(1024)
	ptxt, pjsonl, pacc := runTransformerQuick(t, 4, obs.NewLogger(obs.Fanout(
		slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}), flight.Handler())))
	if !bytes.Equal(txt, ptxt) || !bytes.Equal(jsonl, pjsonl) || !bytes.Equal(pacc, acc) {
		t.Error("observed 4-worker transformer sweep is not byte-identical to the serial run")
	}
	tiers := map[string]int{}
	for _, ev := range flight.Snapshot() {
		if ev.Kind == "tier" {
			tiers[ev.Tier]++
		}
	}
	if tiers["kernel-sampling"] == 0 {
		t.Errorf("flight ring holds no kernel-sampling tier record: %v", tiers)
	}
}
