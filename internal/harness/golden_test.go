package harness

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/obs"
)

// The fig13 golden files pin the quick sweep's exact output — text rows and
// JSONL records — as captured before the hot-path optimization pass. They are
// the regression guard that performance work (event engine, pooling, cached
// metadata) never changes simulated results: any drift in cycle counts,
// sampling decisions or record ordering shows up as a byte diff.

const (
	goldenTxt   = "testdata/fig13_quick.golden.txt"
	goldenJSONL = "testdata/fig13_quick.golden.jsonl"
)

// TestFig13GoldenArtifacts validates the committed golden files themselves:
// parseable records, the expected sweep shape, and agreement between the text
// table and the JSONL stream. This always runs, so a corrupted or
// hand-mangled golden is caught even when the full sweep test is skipped.
func TestFig13GoldenArtifacts(t *testing.T) {
	jf, err := os.Open(filepath.FromSlash(goldenJSONL))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	recs, err := ReadJSONLines[Record](jf)
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: one size per benchmark, three runners per point.
	if len(recs) == 0 || len(recs)%3 != 0 {
		t.Fatalf("golden has %d records, want a positive multiple of 3", len(recs))
	}
	txt, err := os.ReadFile(filepath.FromSlash(goldenTxt))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(txt), "\n"), "\n")
	// Header + column line + one row per record.
	if want := 2 + len(recs); len(lines) != want {
		t.Fatalf("golden txt has %d lines, want %d (2 header + %d rows)", len(lines), want, len(recs))
	}
	wantOrder := []string{"full", "pka", "photon"}
	for i, r := range recs {
		if r.Experiment != "fig13" {
			t.Fatalf("record %d experiment = %q, want fig13", i, r.Experiment)
		}
		if r.Runner != wantOrder[i%3] {
			t.Fatalf("record %d runner = %q, want %q (plan order)", i, r.Runner, wantOrder[i%3])
		}
		if r.Runner == "full" && r.SimCycles != r.FullCycles {
			t.Fatalf("record %d: full runner sim_cycles %d != full_cycles %d", i, r.SimCycles, r.FullCycles)
		}
		row := lines[2+i]
		if !strings.HasPrefix(row, r.Bench) || !strings.Contains(row, " "+r.Runner+" ") {
			t.Fatalf("txt row %d %q does not match record %s/%s", i, row, r.Bench, r.Runner)
		}
	}
}

// TestFig13MatchesGolden re-runs the full fig13 quick sweep in-process and
// byte-compares both artifacts against the goldens. The sweep simulates every
// benchmark in full-detailed mode, so it takes on the order of a minute;
// set PHOTON_GOLDEN=1 to run it (CI's bench job does).
func TestFig13MatchesGolden(t *testing.T) {
	if os.Getenv("PHOTON_GOLDEN") == "" {
		t.Skip("full fig13 sweep takes ~1 min; set PHOTON_GOLDEN=1 to run")
	}
	var txt, jsonl bytes.Buffer
	o := DefaultOptions()
	o.Quick = true
	o.FixedWall = true
	o.Parallel = 1
	o.Baselines = NewBaselineCache()
	o.JSON = NewJSONSink(&jsonl)
	// The acceptance bar for the observability layer: default-level (Info)
	// structured logging and the always-on flight recorder composed into the
	// same logger, output still byte-identical to the pre-observability
	// goldens.
	var logBuf bytes.Buffer
	flight := obs.NewFlightRecorder(1024)
	o.Log = obs.NewLogger(obs.Fanout(
		slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelInfo}), flight.Handler()))
	o.Accuracy = NewAccuracySink(io.Discard)
	if err := Fig13(&txt, o); err != nil {
		t.Fatal(err)
	}
	if flight.Total() == 0 {
		t.Error("flight recorder recorded nothing during the sweep")
	}
	// photon-bench prints a blank separator line after each experiment; the
	// golden was captured from its stdout.
	txt.WriteByte('\n')

	wantTxt, err := os.ReadFile(filepath.FromSlash(goldenTxt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(txt.Bytes(), wantTxt) {
		t.Errorf("fig13 text output drifted from golden:\n%s", diffHint(txt.Bytes(), wantTxt))
	}
	wantJSONL, err := os.ReadFile(filepath.FromSlash(goldenJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl.Bytes(), wantJSONL) {
		t.Errorf("fig13 JSONL records drifted from golden:\n%s", diffHint(jsonl.Bytes(), wantJSONL))
	}
}

// diffHint reports the first differing line so a golden failure is readable
// without an external diff tool.
func diffHint(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
