package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"slices"
	"testing"

	"photon/internal/obs"
	"photon/internal/testutil"
)

// observationFigures are the Section 3 entries of the experiment table, in
// the paper order -exp all prints them.
var observationFigures = []string{"fig1", "fig2", "fig3", "fig4", "fig6", "fig8", "fig11"}

// TestObservationFiguresMatchGolden runs the seven observation entries once
// and byte-compares their concatenated output with observe.golden.txt — the
// stdout of the photon-observe binary these entries replaced, captured before
// it was deleted. It runs them audited and traced: Options.Check must pass on
// a clean run, and the kernel spans show every simulation went through
// RunAppInstrumented (2 launches for fig1, 2 for each of fig2-4, VGG-16's 21
// for fig6; fig8 and fig11 only analyze functionally).
func TestObservationFiguresMatchGolden(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("simulates every observation figure (~12 s)")
	}
	o := DefaultOptions()
	o.Check = true
	o.Trace = obs.NewTraceBuffer()
	kernels := 0
	o.Trace.OnEvent(func(ev obs.TraceEvent) {
		if ev.Cat == "kernel" {
			kernels++
		}
	})
	var out bytes.Buffer
	for _, name := range observationFigures {
		e, ok := FindExperiment(name)
		if !ok {
			t.Fatalf("%s is not a registered experiment", name)
		}
		if err := e.Run(&out, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want, err := os.ReadFile("testdata/observe.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("observation output drifted from golden:\n%s", diffHint(out.Bytes(), want))
	}
	if kernels != 29 {
		t.Errorf("%d kernel spans, want 29: a figure simulates outside the run loop", kernels)
	}
}

// TestExperimentsInPaperOrder: the observation figures sit between the tables
// and the evaluation figures, which is the order -exp all prints.
func TestExperimentsInPaperOrder(t *testing.T) {
	want := append(append([]string{"table1", "table2"}, observationFigures...), "fig13")
	if got := ExperimentNames(); len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
		t.Errorf("experiment table starts %v, want %v", got, want)
	}
}

// TestObservationFigureStopsOnCancelledContext: a figure is bounded by
// Options.Context like every sweep — cancelled, fig2 returns the context's
// error without simulating MM/4096 and SpMV/2048 or printing anything.
func TestObservationFigureStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := DefaultOptions()
	o.Context = ctx
	var out bytes.Buffer
	if err := Fig2(&out, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig2 under a cancelled context: err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("cancelled Fig2 printed %q", out.String())
	}
}
