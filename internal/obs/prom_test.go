package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("serve_jobs_submitted").Add(12)
	r.Counter("photon_tier_transitions_total", L("tier", "bb-sampling")).Add(3)
	r.Counter("photon_tier_transitions_total", L("tier", "full")).Add(1)
	r.Gauge("engine_workers").Set(4)
	r.Gauge("build_info", L("version", "v1.2.3"), L("go", `go"1.22\x`)).Set(1)
	h := r.Histogram("serve_job_wall_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	return r
}

func TestWritePromFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promTestRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_jobs_submitted counter",
		"serve_jobs_submitted 12",
		`photon_tier_transitions_total{tier="bb-sampling"} 3`,
		`photon_tier_transitions_total{tier="full"} 1`,
		"# TYPE engine_workers gauge",
		"engine_workers 4",
		`build_info{go="go\"1.22\\x",version="v1.2.3"} 1`,
		"# TYPE serve_job_wall_seconds histogram",
		`serve_job_wall_seconds_bucket{le="0.1"} 1`,
		`serve_job_wall_seconds_bucket{le="1"} 2`,
		`serve_job_wall_seconds_bucket{le="10"} 2`,
		`serve_job_wall_seconds_bucket{le="+Inf"} 3`,
		"serve_job_wall_seconds_sum 100.55",
		"serve_job_wall_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per metric name even with several label sets.
	if got := strings.Count(out, "# TYPE photon_tier_transitions_total"); got != 1 {
		t.Errorf("got %d TYPE lines for photon_tier_transitions_total, want 1", got)
	}
}

// promLine accepts the exposition grammar loosely enough to catch
// structural breakage: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

func TestWritePromEveryLineParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promTestRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestWritePromSanitizesNames(t *testing.T) {
	if got := promName("sim.cache-hits/total"); got != "sim_cache_hits_total" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("0abc"); got != "_abc" {
		t.Fatalf("promName leading digit = %q", got)
	}
	if got := promName(""); got != "_" {
		t.Fatalf("promName empty = %q", got)
	}
}

// TestHandlerContentNegotiation is the satellite regression test: JSON by
// default (existing CI and photon-ctl parse it), Prometheus text when the
// Accept header asks for it.
func TestHandlerContentNegotiation(t *testing.T) {
	h := HandlerWithSampler(promTestRegistry(), nil)

	get := func(accept string) (string, string) {
		req := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		body, _ := io.ReadAll(rr.Result().Body)
		return rr.Result().Header.Get("Content-Type"), string(body)
	}

	ct, body := get("")
	if ct != "application/json" {
		t.Fatalf("default Content-Type = %q, want application/json", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("default body is not snapshot JSON: %v", err)
	}
	if snap.SumCounters("serve_jobs_submitted") != 12 {
		t.Fatal("JSON snapshot lost counter value")
	}

	ct, body = get("text/plain;version=0.0.4")
	if ct != PromContentType {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE serve_jobs_submitted counter") {
		t.Fatalf("prom body missing TYPE line:\n%s", body)
	}

	// The real Prometheus Accept header (openmetrics preferred, text/plain
	// fallback) must select the text format.
	ct, _ = get("application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.4,*/*;q=0.1")
	if ct != PromContentType {
		t.Fatalf("prometheus-style Accept got Content-Type %q", ct)
	}

	// Explicit JSON preference keeps JSON.
	ct, _ = get("application/json")
	if ct != "application/json" {
		t.Fatalf("application/json Accept got Content-Type %q", ct)
	}
}

func TestHandlerNilRegistry(t *testing.T) {
	h := HandlerWithSampler(nil, nil)
	req := httptest.NewRequest("GET", "/metrics", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil registry must serve an empty snapshot: %v", err)
	}
}

func TestSampleRuntimePublishesVitals(t *testing.T) {
	r := NewRegistry()
	SampleRuntime(r)
	snap := r.Snapshot()
	want := []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total"}
	have := map[string]bool{}
	for _, g := range snap.Gauges {
		have[g.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("runtime sample missing gauge %s", name)
		}
	}
	var goroutines float64
	for _, g := range snap.Gauges {
		if g.Name == "go_goroutines" {
			goroutines = g.Value
		}
	}
	if goroutines < 1 {
		t.Fatalf("go_goroutines = %g, want >= 1", goroutines)
	}
	SampleRuntime(nil) // must not panic
}

func TestResourceSampleDelta(t *testing.T) {
	start := TakeResourceSample()
	// Allocate something measurable.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	end := TakeResourceSample()
	d := end.Delta(start)
	if d.AllocBytes < 64*(64<<10) {
		t.Fatalf("AllocBytes = %d, want >= %d", d.AllocBytes, 64*(64<<10))
	}
	if d.Wall < 0 {
		t.Fatalf("negative wall: %v", d.Wall)
	}
	if d.PeakHeapBytes == 0 {
		t.Fatal("peak heap not captured")
	}
}
