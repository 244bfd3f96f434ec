package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"photon/internal/obs"
	"photon/internal/serve"
)

// stubOutput is what every test worker's executor returns: deterministic,
// derived from the request, so byte-identity across nodes and across the
// router is checkable.
func stubOutput(req serve.JobRequest) serve.Output {
	return serve.Output{
		Text:     fmt.Sprintf("bench=%s size=%d quick=%v\n", req.Bench, req.Size, req.Quick),
		JSONL:    fmt.Sprintf(`{"bench":%q}`+"\n", req.Bench),
		Accuracy: fmt.Sprintf(`{"bench":%q,"kernel":"k0"}`+"\n", req.Bench),
	}
}

type worker struct {
	name string
	srv  *httptest.Server
	reg  *obs.Registry
}

func newWorker(t *testing.T, name string, casDir string) *worker {
	t.Helper()
	reg := obs.NewRegistry()
	var store *serve.CAS
	if casDir != "" {
		var err error
		store, err = serve.OpenCAS(casDir, 0, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	sched := serve.NewScheduler(serve.Config{
		Metrics: reg,
		Store:   store,
		Executor: func(ctx context.Context, req serve.JobRequest, h serve.Hooks) (serve.Output, error) {
			return stubOutput(req), nil
		},
	})
	srv := httptest.NewServer(serve.NewServer(sched, reg).Handler())
	t.Cleanup(srv.Close)
	return &worker{name: name, srv: srv, reg: reg}
}

func newTestRouter(t *testing.T, workers ...*worker) (*Router, *httptest.Server) {
	t.Helper()
	nodes := make(map[string]string, len(workers))
	for _, w := range workers {
		nodes[w.name] = w.srv.URL
	}
	rt, err := NewRouter(Config{Nodes: nodes, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return rt, srv
}

// nodeOf is the node part of a router-scope job id, "<node>.<worker job id>".
func nodeOf(id string) string {
	if i := strings.LastIndexByte(id, '.'); i >= 0 {
		return id[:i]
	}
	return ""
}

func submitVia(t *testing.T, base string, req serve.JobRequest) (serve.JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit response: %v (%s)", err, data)
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, base, id string) serve.JobResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var res serve.JobResult
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatalf("result: %v (%s)", err, data)
			}
			return res
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("result: HTTP %d: %s", resp.StatusCode, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return serve.JobResult{}
}

// TestRouterRoutesByHashAndRewritesIDs: a submission through the router
// lands on the ring owner of its content hash and gets an id that names
// that node, and the status/result endpoints answer under that id.
func TestRouterRoutesByHashAndRewritesIDs(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	rt, srv := newTestRouter(t, w0, w1)

	req := serve.JobRequest{Bench: "mm"}
	canonical, err := serve.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	wantNode := rt.ring.Owner(serve.Hash(canonical))

	st, code := submitVia(t, srv.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d, want 202", code)
	}
	if want := wantNode + "." + st.RequestHash[:12] + "-1"; st.ID != want {
		t.Fatalf("router id = %q, want <ring owner>.<worker job id> = %q", st.ID, want)
	}
	res := waitDone(t, srv.URL, st.ID)
	if res.ID != st.ID {
		t.Fatalf("result id = %s, want %s", res.ID, st.ID)
	}
	if want := stubOutput(canonical); res.Output != want.Text {
		t.Fatalf("output through router = %q, want %q", res.Output, want.Text)
	}
}

// TestRouterByteIdenticalToDirect: the artifact served through the router
// is byte-identical to the same request submitted directly to a worker.
func TestRouterByteIdenticalToDirect(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	_, srv := newTestRouter(t, w0, w1)

	req := serve.JobRequest{Bench: "spmv"}
	st, _ := submitVia(t, srv.URL, req)
	viaRouter := waitDone(t, srv.URL, st.ID)

	solo := newWorker(t, "solo", "")
	dst, _ := submitVia(t, solo.srv.URL, req)
	direct := waitDone(t, solo.srv.URL, dst.ID)

	if viaRouter.Output != direct.Output || viaRouter.JSONL != direct.JSONL {
		t.Fatalf("router output diverged from direct:\nrouter: %q %q\ndirect: %q %q",
			viaRouter.Output, viaRouter.JSONL, direct.Output, direct.JSONL)
	}
}

// TestRouterResubmitIsOwnerCacheHit: resubmitting a completed request
// through the router is one forwarded submit, answered by the owner's
// scheduler from its own store; the other worker never hears of it.
func TestRouterResubmitIsOwnerCacheHit(t *testing.T) {
	workers := map[string]*worker{
		"node0": newWorker(t, "node0", t.TempDir()),
		"node1": newWorker(t, "node1", t.TempDir()),
	}
	_, srv := newTestRouter(t, workers["node0"], workers["node1"])

	req := serve.JobRequest{Bench: "mm"}
	st, _ := submitVia(t, srv.URL, req)
	waitDone(t, srv.URL, st.ID)

	st2, code := submitVia(t, srv.URL, req)
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("resubmit = %d %+v, want 200 cache hit", code, st2)
	}
	node := nodeOf(st.ID)
	if nodeOf(st2.ID) != node {
		t.Fatalf("cache hit %s routed away from %s, where the original ran", st2.ID, node)
	}
	owner := workers[node].reg.Snapshot()
	if hits, executed := owner.SumCounters("serve_cache_hits"), owner.SumCounters("serve_jobs_executed"); hits != 1 || executed != 1 {
		t.Fatalf("owner %s: serve_cache_hits = %v, serve_jobs_executed = %v, want 1 and 1", node, hits, executed)
	}
	for name, w := range workers {
		if name != node {
			if got := w.reg.Snapshot().SumCounters("serve_jobs_submitted"); got != 0 {
				t.Fatalf("non-owner %s saw %v submissions, want 0", name, got)
			}
		}
	}
}

// TestRouterUnknownJob: an id without a node part, an id naming a node that
// is not a member, and an id the named worker never issued are clean 404s.
func TestRouterUnknownJob(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	_, srv := newTestRouter(t, w0)
	for _, id := range []string{"r999999", "node7.0123456789ab-1", "node0.0123456789ab-1"} {
		for _, suffix := range []string{"", "/result"} {
			if code, _ := httpGet(t, srv.URL+"/v1/jobs/"+id+suffix); code != http.StatusNotFound {
				t.Errorf("GET /v1/jobs/%s%s = %d, want 404", id, suffix, code)
			}
		}
	}
}

// httpGet issues one GET and returns the status code and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRouterHoldsNoJobState: a job id is all a router needs. A job submitted
// through one router is answered — status and result — by a second router
// over the same workers and by one built after the job finished, with the
// artifacts the owning worker serves.
func TestRouterHoldsNoJobState(t *testing.T) {
	workers := map[string]*worker{"node0": newWorker(t, "node0", ""), "node1": newWorker(t, "node1", "")}
	_, first := newTestRouter(t, workers["node0"], workers["node1"])
	_, second := newTestRouter(t, workers["node0"], workers["node1"])

	st, _ := submitVia(t, first.URL, serve.JobRequest{Bench: "spmv"})
	waitDone(t, first.URL, st.ID)
	_, later := newTestRouter(t, workers["node0"], workers["node1"])

	node := nodeOf(st.ID)
	direct := waitDone(t, workers[node].srv.URL, strings.TrimPrefix(st.ID, node+"."))
	if direct.Output == "" {
		t.Fatalf("owner %s serves empty artifacts for %s", node, st.ID)
	}

	for name, base := range map[string]string{"second router": second.URL, "router built afterwards": later.URL} {
		code, body := httpGet(t, base+"/v1/jobs/"+st.ID)
		var status serve.JobStatus
		if err := json.Unmarshal(body, &status); err != nil || code != http.StatusOK {
			t.Fatalf("%s: status = %d %s (%v)", name, code, body, err)
		}
		if status.ID != st.ID || status.State != serve.StateDone {
			t.Errorf("%s: status = %+v, want done job %s", name, status, st.ID)
		}
		res := waitDone(t, base, st.ID)
		if res.ID != st.ID || res.Output != direct.Output || res.JSONL != direct.JSONL || res.Accuracy != direct.Accuracy {
			t.Errorf("%s: result differs from the owner's:\nrouter: %+v\nowner:  %+v", name, res, direct)
		}
	}
}
