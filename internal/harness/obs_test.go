package harness

// Integration coverage for the telemetry layer: a real (small) sweep with a
// metrics registry and trace buffer attached must produce a metrics.json
// snapshot carrying per-CU issue cycles, cache hit rates and Photon tier
// decisions, plus a Chrome trace-event file of the shape Perfetto and
// chrome://tracing accept — and attaching telemetry must not break the
// byte-identical output guarantee.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"testing"

	"photon/internal/obs"
	"photon/internal/sim/gpu"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// runObservedSweep runs the determinism sweep with telemetry attached and
// returns the text rows, JSON records, and both serialized artifacts.
func runObservedSweep(t *testing.T, parallel int) (string, []Record, []byte, []byte) {
	t.Helper()
	var text, jsonBuf bytes.Buffer
	o := DefaultOptions()
	o.Parallel = parallel
	o.FixedWall = true
	o.JSON = NewJSONSink(&jsonBuf)
	o.Baselines = NewBaselineCache()
	o.Metrics = obs.NewRegistry()
	o.Trace = obs.NewTraceBuffer()
	// The full pillar set rides along so the determinism test below also
	// proves that debug-level logging, the flight recorder and the accuracy
	// ledger never perturb the byte-identical outputs.
	flight := obs.NewFlightRecorder(256)
	o.Log = obs.NewLogger(obs.Fanout(
		slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}), flight.Handler()))
	o.Accuracy = NewAccuracySink(io.Discard)
	if err := o.RunSweep(&text, detSweep(o)); err != nil {
		t.Fatal(err)
	}
	if o.Accuracy.Kernels() == 0 {
		t.Fatal("accuracy sink saw no kernels")
	}
	if flight.Total() == 0 {
		t.Fatal("flight recorder saw no events")
	}
	FinalizeMetrics(o.Metrics)
	var metrics, trace bytes.Buffer
	if err := o.Metrics.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	return text.String(), recs, metrics.Bytes(), trace.Bytes()
}

func TestSweepMetricsArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small simulations")
	}
	_, recs, metricsJSON, traceJSON := runObservedSweep(t, 4)

	// The snapshot must parse and carry the acceptance-criteria families:
	// per-CU issue cycles, L1/L2 hit rates, Photon tier-transition counts.
	var snap obs.Snapshot
	if err := json.Unmarshal(metricsJSON, &snap); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	perCU := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Name == "sim_cu_issue_cycles" {
			perCU[c.Labels["cu"]] = true
		}
	}
	if len(perCU) < 2 {
		t.Fatalf("per-CU issue cycles missing (saw CUs %v)", perCU)
	}
	for _, level := range []string{"L1V", "L2"} {
		found := false
		for _, g := range snap.Gauges {
			if g.Name == "sim_cache_hit_rate" && g.Labels["level"] == level {
				if g.Value < 0 || g.Value > 1 {
					t.Fatalf("%s hit rate %v out of [0,1]", level, g.Value)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("sim_cache_hit_rate{level=%s} missing from snapshot", level)
		}
	}
	if snap.SumCounters("photon_tier_transitions_total") == 0 {
		t.Fatal("photon_tier_transitions_total missing from snapshot")
	}
	if snap.SumCounters("engine_jobs_total", obs.L("status", "ok")) != 6 {
		t.Fatal("engine job accounting missing from snapshot")
	}

	// The trace must be a Chrome trace-event array: every event named, with
	// the phase/timestamp/track fields Perfetto requires, and complete ("X")
	// spans present for engine jobs and kernels.
	var events []map[string]any
	if err := json.Unmarshal(traceJSON, &events); err != nil {
		t.Fatalf("trace file is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file is empty")
	}
	phases := map[string]int{}
	cats := map[string]int{}
	for i, e := range events {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d has no phase: %v", i, e)
		}
		phases[ph]++
		if cat, ok := e["cat"].(string); ok {
			cats[cat]++
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("event %d has no numeric ts: %v", i, e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, e)
		}
	}
	if phases["X"] == 0 {
		t.Fatalf("no complete spans in trace (phases %v)", phases)
	}
	if cats["engine-job"] != 6 {
		t.Fatalf("engine-job spans = %d, want 6 (one per job)", cats["engine-job"])
	}
	if cats["kernel"] == 0 {
		t.Fatal("no kernel spans in trace")
	}

	// Engine metadata reaches the records, normalized under FixedWall.
	for i, r := range recs {
		if r.Worker != 0 || r.JobWallMS != 1.0 {
			t.Fatalf("record %d not normalized: worker=%d job_wall_ms=%v", i, r.Worker, r.JobWallMS)
		}
	}
}

// TestObservedSweepStaysDeterministic re-checks the byte-identity guarantee
// with telemetry attached: the metrics/trace artifacts are host-time-based
// and exempt, but rows and records must not be perturbed by instrumentation.
func TestObservedSweepStaysDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small simulations")
	}
	text1, recs1, _, _ := runObservedSweep(t, 1)
	text8, recs8, _, _ := runObservedSweep(t, 8)
	if text1 != text8 {
		t.Fatalf("text differs with telemetry attached:\n--- serial ---\n%s--- parallel ---\n%s", text1, text8)
	}
	if !reflect.DeepEqual(recs1, recs8) {
		t.Fatalf("records differ with telemetry attached:\nserial:   %+v\nparallel: %+v", recs1, recs8)
	}
}

// memSeries renders every memory-hierarchy series of a snapshot, one per
// line, sorted: counters and gauges by value, histograms by count and sum.
func memSeries(snap obs.Snapshot) string {
	var lines []string
	mem := func(name string) bool {
		return strings.HasPrefix(name, "sim_cache_") || strings.HasPrefix(name, "sim_dram_")
	}
	for _, c := range snap.Counters {
		if mem(c.Name) {
			lines = append(lines, fmt.Sprintf("%s{%s} %d", c.Name, c.Labels["level"], c.Value))
		}
	}
	for _, g := range snap.Gauges {
		if mem(g.Name) {
			lines = append(lines, fmt.Sprintf("%s{%s} %v", g.Name, g.Labels["level"], g.Value))
		}
	}
	for _, h := range snap.Histograms {
		if mem(h.Name) {
			lines = append(lines, fmt.Sprintf("%s{%s} count=%d sum=%v", h.Name, h.Labels["level"], h.Count, h.Sum))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestMemMetricsMatchRecorded pins what the memory hierarchy publishes: a
// registry-attached SC/384 run on the R9 Nano must produce, series by series,
// the counters, hit-rate gauges and latency-histogram counts and sums
// recorded before the hierarchy's statistics became single-homed (plain
// counters fed to the registry at kernel end, histograms observed only while
// attached).
func TestMemMetricsMatchRecorded(t *testing.T) {
	spec, err := workloads.FindSpec("SC")
	if err != nil {
		t.Fatal(err)
	}
	app, err := spec.Build(384)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := RunAppInstrumented(context.Background(), gpu.R9Nano(), app, gpu.FullRunner{}, AppObs{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	FinalizeMetrics(reg)
	if got := memSeries(reg.Snapshot()); got != recordedSerialSC384 {
		t.Errorf("memory series differ from the recorded run\n got:\n%s\nwant:\n%s", got, recordedSerialSC384)
	}
}

const recordedSerialSC384 = `sim_cache_evictions_total{L1I} 0
sim_cache_evictions_total{L1K} 0
sim_cache_evictions_total{L1V} 28480
sim_cache_evictions_total{L2} 0
sim_cache_hit_rate{L1I} 0.9956896551724138
sim_cache_hit_rate{L1K} 0.9966666666666667
sim_cache_hit_rate{L1V} 0.3093278463648834
sim_cache_hit_rate{L2} 0.9064058887942572
sim_cache_hits_total{L1I} 11088
sim_cache_hits_total{L1K} 9568
sim_cache_hits_total{L1V} 14432
sim_cache_hits_total{L2} 29799
sim_cache_latency_cycles{L1I} count=11136 sum=234070
sim_cache_latency_cycles{L1K} count=9600 sum=234011
sim_cache_latency_cycles{L1V} count=46656 sum=7.496946e+06
sim_cache_latency_cycles{L2} count=32876 sum=6.170973e+06
sim_cache_misses_total{L1I} 48
sim_cache_misses_total{L1K} 32
sim_cache_misses_total{L1V} 32224
sim_cache_misses_total{L2} 3077
sim_cache_writebacks_total{L1I} 0
sim_cache_writebacks_total{L1K} 0
sim_cache_writebacks_total{L1V} 572
sim_cache_writebacks_total{L2} 0
sim_dram_accesses_total{} 3077
sim_dram_latency_cycles{} count=3077 sum=799532`

// TestOfflineReachesTheSinks: both Photon passes of -exp offline run through
// RunAppInstrumented, so the experiment's registry sees Photon's telemetry,
// its trace buffer gets one kernel span per launch of each pass, and Check
// audits every kernel.
func TestOfflineReachesTheSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a reduced VGG-16 twice under Photon")
	}
	o := DefaultOptions()
	o.DNNScale = dnn.Scale{Input: 32, ChannelDiv: 16}
	o.Check = true
	o.Metrics = obs.NewRegistry()
	o.Trace = obs.NewTraceBuffer()
	kernels := 0
	o.Trace.OnEvent(func(ev obs.TraceEvent) {
		if ev.Cat == "kernel" {
			kernels++
		}
	})
	if err := Offline(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if n := o.Metrics.Snapshot().SumCounters("photon_insts_detailed_total"); n == 0 {
		t.Error("offline's Photon runs published no photon_* telemetry")
	}
	app, err := dnn.BuildVGG(16, o.DNNScale)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(app.Launches); kernels != want {
		t.Errorf("%d kernel spans, want %d: one per launch of each pass", kernels, want)
	}
}
