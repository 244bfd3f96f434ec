package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Scheduler) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	sched := NewScheduler(cfg)
	ts := httptest.NewServer(NewServer(sched, cfg.Metrics).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		sched.Drain(ctx)
	})
	return ts, sched
}

func postJob(t *testing.T, url string, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

func TestHTTPSubmitPollResult(t *testing.T) {
	release := make(chan struct{})
	close(release)
	var runs atomic.Int64
	ts, _ := newTestServer(t, Config{Executor: blockingExec(&runs, release)})

	resp, st := postJob(t, ts.URL, JobRequest{Bench: "mm"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.RequestHash == "" {
		t.Fatalf("submit response incomplete: %+v", st)
	}

	// Poll status until done.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.Finished() || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job state = %s, want done", st.State)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", r.StatusCode)
	}
	var res JobResult
	json.NewDecoder(r.Body).Decode(&res)
	if res.Output != "out:MM" {
		t.Errorf("result output = %q", res.Output)
	}

	// Resubmitting the same content is a synchronous 200 cache hit.
	resp2, st2 := postJob(t, ts.URL, JobRequest{Bench: "MM", Parallel: 3})
	if resp2.StatusCode != http.StatusOK || !st2.CacheHit {
		t.Errorf("resubmit: status=%d cache_hit=%v, want 200 hit", resp2.StatusCode, st2.CacheHit)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	ts, sched := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second,
		Executor: blockingExec(&runs, release)})
	defer close(release)

	// 400: invalid request.
	resp, _ := postJob(t, ts.URL, JobRequest{Bench: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad bench: status = %d, want 400", resp.StatusCode)
	}
	// 400: malformed body.
	r, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", r.StatusCode)
	}
	r.Body.Close()
	// 4xx: a body past the cap is refused however valid its JSON, and
	// nothing is admitted.
	padded := strings.Repeat(" ", MaxRequestBytes) + `{"bench":"aes"}`
	r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode < 400 || r.StatusCode > 499 {
		t.Errorf("oversized body: status = %d, want a 4xx", r.StatusCode)
	}
	r.Body.Close()
	if jobs := sched.List(); len(jobs) != 0 {
		t.Errorf("oversized body was admitted: %+v", jobs)
	}
	// 404: unknown job everywhere.
	for _, path := range []string{"/v1/jobs/0123456789ab-1", "/v1/jobs/0123456789ab-1/result", "/v1/jobs/0123456789ab-1/events"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
		r.Body.Close()
	}

	// Saturate: one running, one queued, then a third distinct job → 429.
	postJob(t, ts.URL, JobRequest{Bench: "mm"})
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	postJob(t, ts.URL, JobRequest{Bench: "sc"})
	resp429, _ := postJob(t, ts.URL, JobRequest{Bench: "fir"})
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status = %d, want 429", resp429.StatusCode)
	}
	if ra := resp429.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want %q", ra, "7")
	}

	// 409: result of an unfinished job.
	st, _ := sched.Status(listFirstRunning(t, sched))
	r2, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if r2.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result: status = %d, want 409", r2.StatusCode)
	}
	r2.Body.Close()

	// 410: result of a cancelled job.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	rc, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rc.Body.Close()
	waitState(t, sched, st.ID, StateCancelled)
	r3, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if r3.StatusCode != http.StatusGone {
		t.Errorf("cancelled result: status = %d, want 410", r3.StatusCode)
	}
	r3.Body.Close()
}

func listFirstRunning(t *testing.T, s *Scheduler) string {
	t.Helper()
	for _, st := range s.List() {
		if st.State == StateRunning {
			return st.ID
		}
	}
	t.Fatal("no running job")
	return ""
}

func TestHTTPOpsEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	close(release)
	var runs atomic.Int64
	ts, sched := newTestServer(t, Config{Metrics: reg, Executor: blockingExec(&runs, release)})

	// healthz carries the build identity.
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Build  struct {
			Version string `json:"version"`
			Go      string `json:"go"`
		} `json:"build"`
	}
	json.NewDecoder(r.Body).Decode(&health)
	r.Body.Close()
	if health.Status != "ok" || health.Build.Version == "" || !strings.HasPrefix(health.Build.Go, "go") {
		t.Errorf("healthz = %+v", health)
	}

	// readyz flips to 503 when draining.
	r, _ = http.Get(ts.URL + "/readyz")
	if r.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d, want 200", r.StatusCode)
	}
	r.Body.Close()

	// Run one job so serve_* counters exist, then check /metrics.
	_, st := postJob(t, ts.URL, JobRequest{Bench: "mm"})
	waitState(t, sched, st.ID, StateDone)
	r, _ = http.Get(ts.URL + "/metrics")
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("metrics content type = %q", ct)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	json.NewDecoder(r.Body).Decode(&snap)
	r.Body.Close()
	found := map[string]uint64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["serve_jobs_submitted"] == 0 || found["serve_jobs_executed"] == 0 {
		t.Errorf("metrics snapshot missing serve counters: %v", found)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	sched.Drain(ctx)
	r, _ = http.Get(ts.URL + "/readyz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", r.StatusCode)
	}
	r.Body.Close()
	// Submissions are refused with 503 too.
	resp, _ := postJob(t, ts.URL, JobRequest{Bench: "sc"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPEventStream(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	ts, sched := newTestServer(t, Config{Executor: blockingExec(&runs, release)})

	_, st := postJob(t, ts.URL, JobRequest{Bench: "mm"})
	waitState(t, sched, st.ID, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()

	// The stream must replay queued+running, then deliver the terminal
	// result event and end.
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		if ev.Type == "state" || ev.Type == "result" {
			states = append(states, ev.State)
		}
	}
	want := []string{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("streamed lifecycle = %v, want %v", states, want)
	}
}
