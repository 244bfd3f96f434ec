package core

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// TestDecisionLedger runs a multi-kernel app under full Photon and checks
// the tier ledger: one decision per launch, in order, with tier strings
// matching the reported modes and evidence fields populated for the tiers
// that fired.
func TestDecisionLedger(t *testing.T) {
	app, err := dnn.BuildVGG(16, dnn.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(smallGPU())
	ph := MustNew(smallGPU(), testParams(), AllLevels())
	flight := obs.NewFlightRecorder(64)
	var logBuf bytes.Buffer
	g.SetLog(obs.NewLogger(obs.Fanout(
		slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}), flight.Handler())))

	var modes []string
	for _, l := range app.Launches {
		r, err := gpu.RunKernel(ph, g, l)
		if err != nil {
			t.Fatal(err)
		}
		modes = append(modes, r.Mode)
	}

	decs := ph.Decisions()
	if len(decs) != len(app.Launches) {
		t.Fatalf("got %d decisions for %d launches", len(decs), len(app.Launches))
	}
	sawMatch := false
	for i, d := range decs {
		if d.Index != i {
			t.Errorf("decision %d: Index = %d", i, d.Index)
		}
		if d.Tier != modes[i] {
			t.Errorf("decision %d: Tier = %q, result mode %q", i, d.Tier, modes[i])
		}
		if d.Kernel == "" {
			t.Errorf("decision %d: empty kernel name", i)
		}
		if d.Insts == 0 {
			t.Errorf("decision %d: zero insts", i)
		}
		if d.PredictedCycles <= 0 {
			t.Errorf("decision %d: PredictedCycles = %v", i, d.PredictedCycles)
		}
		switch d.Tier {
		case "kernel-sampling":
			sawMatch = true
			if !d.KernelMatch {
				t.Errorf("decision %d: kernel-sampling without KernelMatch", i)
			}
		case "bb-sampling":
			if d.BBStableShare <= 0 {
				t.Errorf("decision %d: bb-sampling with BBStableShare %v", i, d.BBStableShare)
			}
			if d.GateCycles <= 0 {
				t.Errorf("decision %d: bb-sampling with GateCycles %v", i, d.GateCycles)
			}
		}
	}
	// A 2-layer DNN repeats layer shapes, so kernel-sampling must fire at
	// least once — otherwise the ledger's match evidence is untested.
	if !sawMatch {
		t.Logf("modes: %v (no kernel-sampling match in this configuration)", modes)
	}

	// The flight recorder saw one tier event per kernel, each the very
	// record the Debug logger got: same message, the decision's tier, the
	// launch index as value.
	tierEvents := 0
	for _, ev := range flight.Snapshot() {
		if ev.Kind != "tier" {
			continue
		}
		if i := int(ev.Value); i >= len(decs) || ev.Tier != decs[i].Tier || !strings.HasSuffix(ev.Msg, decs[i].Kernel) {
			t.Errorf("ring tier event %+v matches no decision", ev)
		}
		if !strings.Contains(logBuf.String(), `"msg":"`+ev.Msg+`"`) {
			t.Errorf("ring message %q not in the log", ev.Msg)
		}
		tierEvents++
	}
	if want := len(app.Launches); tierEvents != want && flight.Cap() >= want {
		t.Errorf("flight recorder has %d tier events, want %d", tierEvents, want)
	}
	// Debug logging captured the decisions without altering them.
	if logBuf.Len() == 0 {
		t.Error("debug logger received no tier-decision records")
	}
}

// TestDecisionLedgerDeterministic: attaching log/flight/metrics must not
// change simulated results (the byte-identity guarantee upstream goldens
// rely on).
func TestDecisionLedgerDeterministic(t *testing.T) {
	app1, err := workloads.BuildReLU(8192)
	if err != nil {
		t.Fatal(err)
	}
	app2, err := workloads.BuildReLU(8192)
	if err != nil {
		t.Fatal(err)
	}

	bare := MustNew(smallGPU(), testParams(), AllLevels())
	r1, err := gpu.RunKernel(bare, gpu.New(smallGPU()), app1.Launches[0])
	if err != nil {
		t.Fatal(err)
	}

	wired := gpu.New(smallGPU())
	wired.SetMetrics(obs.NewRegistry())
	wired.SetLog(obs.NewLogger(obs.Fanout(
		slog.NewJSONHandler(&bytes.Buffer{}, &slog.HandlerOptions{Level: slog.LevelDebug}),
		obs.NewFlightRecorder(32).Handler())))
	r2, err := gpu.RunKernel(MustNew(smallGPU(), testParams(), AllLevels()), wired, app2.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1.SimTime != r2.SimTime || r1.Insts != r2.Insts || r1.Mode != r2.Mode {
		t.Fatalf("telemetry changed results: %+v vs %+v", r1, r2)
	}
}
