package serve

// Tests for the serve-side observability surfaces: /metrics content
// negotiation, the flight-recorder debug endpoint, executor panic
// containment, per-job resource attribution, job-scoped log events on the
// SSE hub, and the per-job accuracy ledger endpoint.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"photon/internal/harness"
	"photon/internal/obs"
)

// TestHTTPMetricsContentNegotiation is the satellite regression test: JSON
// stays the default (the CLI and CI parse it), Prometheus text exposition
// answers a scrape Accept header, and the build identity rides along as a
// photon_build_info gauge in both.
func TestHTTPMetricsContentNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	close(release)
	var runs atomic.Int64
	ts, sched := newTestServer(t, Config{Metrics: reg, Executor: blockingExec(&runs, release)})

	_, st := postJob(t, ts.URL, JobRequest{Bench: "mm"})
	waitState(t, sched, st.ID, StateDone)

	// Default: JSON, parseable, with the build_info gauge.
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default content type = %q, want application/json", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	r.Body.Close()
	foundBuild := false
	for _, g := range snap.Gauges {
		if g.Name == "photon_build_info" {
			foundBuild = true
			if g.Labels["version"] == "" || g.Labels["go"] == "" {
				t.Errorf("photon_build_info labels incomplete: %v", g.Labels)
			}
		}
	}
	if !foundBuild {
		t.Error("photon_build_info gauge missing from JSON snapshot")
	}

	// A Prometheus scrape Accept header flips to text exposition.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prom content type = %q, want %q", ct, obs.PromContentType)
	}
	body, _ := io.ReadAll(r.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_jobs_submitted counter",
		"serve_jobs_submitted ",
		"photon_build_info{",
		"# TYPE go_goroutines gauge", // the per-scrape runtime sampler ran
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, text)
		}
	}
}

// logCapture is a Debug-level log sink that counts the (kind, msg) of every
// record it is handed — the "is it in the log?" side of the one-record
// contract the flight ring is the other side of.
type logCapture struct {
	mu   sync.Mutex
	seen map[[2]string]int
}

type captureHandler struct {
	c    *logCapture
	kind string // bound by WithAttrs
}

func (h captureHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h captureHandler) Handle(_ context.Context, r slog.Record) error {
	kind := h.kind
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "kind" {
			kind = a.Value.String()
		}
		return true
	})
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.c.seen == nil {
		h.c.seen = map[[2]string]int{}
	}
	h.c.seen[[2]string{kind, r.Message}]++
	return nil
}

func (h captureHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	for _, a := range attrs {
		if a.Key == "kind" {
			h.kind = a.Value.String()
		}
	}
	return h
}

func (h captureHandler) WithGroup(string) slog.Handler { return h }

func (c *logCapture) logger() *obs.Logger { return obs.NewLogger(captureHandler{c: c}) }

// mustHoldRing fails the test for every flight event whose (kind, msg) the
// log sink never saw: the ring is a sink of the log record, so it can hold
// nothing the log was not also offered, under the same wording.
func (c *logCapture) mustHoldRing(t *testing.T, ring []obs.FlightEvent) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range ring {
		if c.seen[[2]string{ev.Kind, ev.Msg}] == 0 {
			t.Errorf("flight event [%s] %q never reached the log sink", ev.Kind, ev.Msg)
		}
	}
}

// TestHTTPFlightEndpoint: the always-on ring is dumpable over HTTP, in JSON
// and in the terminal text form, and carries the scheduler's lifecycle
// events for a completed job — each of them a record the daemon logger got
// too.
func TestHTTPFlightEndpoint(t *testing.T) {
	release := make(chan struct{})
	close(release)
	var runs atomic.Int64
	flight := obs.NewFlightRecorder(128)
	var logged logCapture
	ts, sched := newTestServer(t, Config{Flight: flight, Log: logged.logger(), Executor: blockingExec(&runs, release)})

	_, st := postJob(t, ts.URL, JobRequest{Bench: "mm"})
	waitState(t, sched, st.ID, StateDone)

	r, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("flight content type = %q", ct)
	}
	var dump obs.FlightDump
	if err := json.NewDecoder(r.Body).Decode(&dump); err != nil {
		t.Fatalf("flight dump is not JSON: %v", err)
	}
	r.Body.Close()
	if dump.Cap != 128 || dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatalf("flight dump empty: cap=%d total=%d events=%d", dump.Cap, dump.Total, len(dump.Events))
	}
	kinds := map[string]int{}
	msgs := map[string]int{}
	for _, ev := range dump.Events {
		if ev.Seq == 0 || ev.TS == 0 {
			t.Errorf("event missing seq/ts: %+v", ev)
		}
		kinds[ev.Kind]++
		msgs[ev.Msg]++
	}
	if kinds["sched"] == 0 {
		t.Errorf("no scheduler events in flight ring: %v", kinds)
	}
	for _, want := range []string{"admitted", "running", StateDone} {
		if msgs[want] == 0 {
			t.Errorf("lifecycle %q missing from flight ring: %v", want, msgs)
		}
	}
	logged.mustHoldRing(t, dump.Events)

	// Text rendering, for terminals.
	r, err = http.Get(ts.URL + "/debug/flight?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(body), "flight recorder:") || !strings.Contains(string(body), "[sched]") {
		t.Errorf("text dump malformed:\n%s", body)
	}

	// A daemon without a flight recorder answers 404, not a panic.
	ts2, _ := newTestServer(t, Config{Executor: blockingExec(&runs, release)})
	r, err = http.Get(ts2.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("flight without recorder = %d, want 404", r.StatusCode)
	}
}

// TestExecutorPanicContained: a panicking executor must fail its own job,
// leave a panic event in the flight ring, and leave the daemon serving.
func TestExecutorPanicContained(t *testing.T) {
	flight := obs.NewFlightRecorder(64)
	var logged logCapture
	var calls atomic.Int64
	s := NewScheduler(Config{Flight: flight, Log: logged.logger(), Executor: func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		if calls.Add(1) == 1 {
			panic("simulated executor crash")
		}
		return Output{Text: "ok"}, nil
	}})
	defer s.Drain(context.Background())

	st, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(got.Error, "panic in executor") || !strings.Contains(got.Error, "simulated executor crash") {
		t.Errorf("job error = %q, want panic message", got.Error)
	}

	// The ring kept the crash context.
	panics := 0
	for _, ev := range flight.Snapshot() {
		if ev.Kind == "panic" && strings.Contains(ev.Msg, "simulated executor crash") {
			panics++
		}
	}
	if panics != 1 {
		t.Errorf("panic events in ring = %d, want 1", panics)
	}
	logged.mustHoldRing(t, flight.Snapshot())

	// The worker survived: the same request re-runs (failures are not
	// cached) and completes.
	st2, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if waitState(t, s, st2.ID, StateDone); calls.Load() != 2 {
		t.Errorf("executor calls = %d, want 2", calls.Load())
	}
}

// TestJobResourceAttribution: a finished job reports its resource deltas.
func TestJobResourceAttribution(t *testing.T) {
	s := NewScheduler(Config{Executor: func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		// Allocate noticeably so the delta is visible above noise.
		waste := make([][]byte, 64)
		for i := range waste {
			waste[i] = make([]byte, 64<<10)
		}
		_ = waste
		return Output{Text: "ok"}, nil
	}})
	defer s.Drain(context.Background())

	st, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, st.ID, StateDone)
	if done.PeakHeapBytes == 0 {
		t.Error("PeakHeapBytes not attributed")
	}
	if done.AllocBytes < 64*(64<<10) {
		t.Errorf("AllocBytes = %d, want >= %d", done.AllocBytes, 64*(64<<10))
	}
	if done.CPUTimeMS < 0 {
		t.Errorf("CPUTimeMS = %v, want >= 0", done.CPUTimeMS)
	}
}

// TestJobLogEventsReachHub: records from the execution-scoped logger must
// surface on the job's event stream as type "log" events, tagged with the
// job hash, while a nil daemon logger stays fine.
func TestJobLogEventsReachHub(t *testing.T) {
	s := NewScheduler(Config{Executor: func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		lg := jobLogger(h)
		lg.Info("kernel simulated", slog.Int("index", 3), slog.String("tier", "bb-sampling"))
		lg.Debug("detector verdict", slog.String("verdict", "stable"))
		return Output{Text: "ok"}, nil
	}})
	defer s.Drain(context.Background())

	st, err := s.Submit(JobRequest{Bench: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	replay, _, cancel, err := s.SubscribeFrom(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var logs []Event
	for _, ev := range replay {
		if ev.Type == "log" {
			logs = append(logs, ev)
		}
	}
	if len(logs) != 2 {
		t.Fatalf("log events = %d, want 2 (replay: %+v)", len(logs), replay)
	}
	first := logs[0]
	if first.Level != "INFO" || first.Msg != "kernel simulated" {
		t.Errorf("first log event = %+v", first)
	}
	if first.Fields["index"] != "3" || first.Fields["tier"] != "bb-sampling" {
		t.Errorf("log fields = %v", first.Fields)
	}
	if first.Fields["job"] == "" {
		t.Errorf("log event not job-scoped: %v", first.Fields)
	}
	if logs[1].Level != "DEBUG" {
		t.Errorf("second log event level = %q, want DEBUG", logs[1].Level)
	}
}

// TestHTTPAccuracyEndpoint covers the ledger endpoint's status mapping with
// a stub executor that fabricates a two-line ledger.
func TestHTTPAccuracyEndpoint(t *testing.T) {
	const ledger = `{"bench":"MM","runner":"photon","kernel":"mm_tile","index":0,"tier":"bb-sampling","predicted_cycles":102,"detailed_cycles":100,"err_pct":2,"insts":10}
{"bench":"MM","runner":"photon","kernel":"mm_tile","index":1,"tier":"kernel-sampling","predicted_cycles":95,"detailed_cycles":100,"err_pct":5,"insts":10}
`
	release := make(chan struct{})
	ts, sched := newTestServer(t, Config{Executor: func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		acc := ""
		if req.Bench == "MM" {
			acc = ledger
		}
		select {
		case <-release:
		case <-ctx.Done():
			return Output{}, ctx.Err()
		}
		return Output{Text: "ok", Accuracy: acc}, nil
	}})

	_, st := postJob(t, ts.URL, JobRequest{Bench: "mm"})
	waitState(t, sched, st.ID, StateRunning)

	// Unknown job: 404. Running job: 409.
	r, _ := http.Get(ts.URL + "/v1/jobs/j999999/accuracy")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job accuracy = %d, want 404", r.StatusCode)
	}
	r.Body.Close()
	r, _ = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/accuracy")
	if r.StatusCode != http.StatusConflict {
		t.Errorf("running job accuracy = %d, want 409", r.StatusCode)
	}
	r.Body.Close()

	close(release)
	waitState(t, sched, st.ID, StateDone)
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/accuracy")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("accuracy content type = %q", ct)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if string(body) != ledger {
		t.Errorf("accuracy body drifted:\n%s", body)
	}
	recs, err := harness.ReadJSONLines[harness.AccuracyRecord](strings.NewReader(string(body)))
	if err != nil || len(recs) != 2 {
		t.Fatalf("served ledger does not parse: %v (%d records)", err, len(recs))
	}
	if recs[0].Tier != "bb-sampling" || recs[1].ErrPct != 5 {
		t.Errorf("ledger round-trip mangled: %+v", recs)
	}

	// The full result payload carries the same ledger inline.
	r, _ = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	var res JobResult
	json.NewDecoder(r.Body).Decode(&res)
	r.Body.Close()
	if res.Accuracy != ledger {
		t.Errorf("JobResult.Accuracy = %q", res.Accuracy)
	}

	// A job that produced no ledger answers 204.
	_, st2 := postJob(t, ts.URL, JobRequest{Bench: "sc"})
	waitState(t, sched, st2.ID, StateDone)
	r, _ = http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/accuracy")
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Errorf("ledger-less job accuracy = %d, want 204", r.StatusCode)
	}
}

// TestHarnessExecutorObservability runs the real executor on the smallest
// cell with the full pillar set wired and checks the serve-side view: a
// real accuracy ledger whose tier counts sum to the sampled row's kernel
// count, log events on the hub, and tier events in the daemon flight ring.
func TestHarnessExecutorObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(256)
	var logged logCapture
	s := NewScheduler(Config{Metrics: reg, Flight: flight, Log: logged.logger()})
	defer s.Drain(context.Background())

	st, err := s.Submit(JobRequest{Bench: "sc", FixedWall: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	res, _, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy == "" {
		t.Fatal("real run produced no accuracy ledger")
	}
	recs, err := harness.ReadJSONLines[harness.AccuracyRecord](strings.NewReader(res.Accuracy))
	if err != nil {
		t.Fatalf("ledger does not parse: %v", err)
	}
	sweep, err := harness.ReadJSONLines[harness.Record](strings.NewReader(res.JSONL))
	if err != nil {
		t.Fatal(err)
	}
	wantKernels := 0
	for _, rec := range sweep {
		if rec.Runner == "photon" {
			wantKernels += rec.Kernels
		}
	}
	if len(recs) != wantKernels {
		t.Errorf("ledger records = %d, want %d (photon rows' kernels)", len(recs), wantKernels)
	}
	for i, rec := range recs {
		if rec.Tier == "" || rec.PredictedCycles <= 0 {
			t.Errorf("ledger record %d incomplete: %+v", i, rec)
		}
	}

	// Tier decisions from the simulator reached the daemon's flight ring,
	// tagged with the job they belong to, and nothing is in the ring that
	// the daemon logger was not handed as well.
	tiers := 0
	for _, ev := range flight.Snapshot() {
		if ev.Kind == "tier" {
			tiers++
			if ev.Job != short(st.RequestHash) || ev.Tier == "" {
				t.Errorf("tier event not joined to its job: %+v", ev)
			}
		}
	}
	if tiers == 0 {
		t.Error("no tier events in the daemon flight ring")
	}
	logged.mustHoldRing(t, flight.Snapshot())

	// Accuracy roll-up gauges were published to the shared registry.
	total := 0.0
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "photon_accuracy_kernels_total" {
			total += g.Value
		}
	}
	if total == 0 {
		t.Error("photon_accuracy_kernels_total gauge missing")
	}
}
