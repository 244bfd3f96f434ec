package cluster

import (
	"bufio"
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
	name  string
	srv   *httptest.Server
	sched *serve.Scheduler
	reg   *obs.Registry
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
	return &worker{name: name, srv: srv, sched: sched, reg: reg}
}

func newTestRouter(t *testing.T, workers ...*worker) (*Router, *httptest.Server, *obs.Registry) {
	t.Helper()
	nodes := make(map[string]string, len(workers))
	for _, w := range workers {
		nodes[w.name] = w.srv.URL
	}
	reg := obs.NewRegistry()
	rt, err := NewRouter(Config{Nodes: nodes, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	rt.probeAll(context.Background())
	return rt, srv, reg
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
// lands on the ring owner of its content hash, gets a cluster-scope id that
// names that node, and the status/result endpoints answer under that id
// with node attribution.
func TestRouterRoutesByHashAndRewritesIDs(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	rt, srv, _ := newTestRouter(t, w0, w1)

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
	if st.Node != wantNode {
		t.Fatalf("routed to %s, ring owner is %s", st.Node, wantNode)
	}
	if want := wantNode + "." + st.RequestHash[:12] + "-1"; st.ID != want {
		t.Fatalf("cluster-scope id = %q, want <node>.<worker job id> = %q", st.ID, want)
	}
	res := waitDone(t, srv.URL, st.ID)
	if res.ID != st.ID || res.Node != wantNode {
		t.Fatalf("result identity = (%s, %s), want (%s, %s)", res.ID, res.Node, st.ID, wantNode)
	}
	if want := stubOutput(canonical); res.Output != want.Text {
		t.Fatalf("output through router = %q, want %q", res.Output, want.Text)
	}
}

// TestRouterByteIdenticalToDirect: the artifact served through the router
// is byte-identical to the same request submitted directly to a worker —
// the cluster invariant.
func TestRouterByteIdenticalToDirect(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	_, srv, _ := newTestRouter(t, w0, w1)

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
// through the router costs one upstream call — no lookup ahead of it — and
// is answered by the owner's scheduler from its own store.
func TestRouterResubmitIsOwnerCacheHit(t *testing.T) {
	workers := map[string]*worker{
		"node0": newWorker(t, "node0", t.TempDir()),
		"node1": newWorker(t, "node1", t.TempDir()),
	}
	_, srv, reg := newTestRouter(t, workers["node0"], workers["node1"])

	req := serve.JobRequest{Bench: "mm"}
	st, _ := submitVia(t, srv.URL, req)
	waitDone(t, srv.URL, st.ID)

	st2, code := submitVia(t, srv.URL, req)
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("resubmit = %d %+v, want 200 cache hit", code, st2)
	}
	if st2.Node != st.Node {
		t.Fatalf("cache hit routed to %s, original ran on %s", st2.Node, st.Node)
	}
	owner := workers[st.Node].reg.Snapshot()
	if hits, executed := owner.SumCounters("serve_cache_hits"), owner.SumCounters("serve_jobs_executed"); hits != 1 || executed != 1 {
		t.Fatalf("owner %s: serve_cache_hits = %v, serve_jobs_executed = %v, want 1 and 1", st.Node, hits, executed)
	}
	if got := reg.Snapshot().SumCounters("cluster_federated_hits"); got != 0 {
		t.Fatalf("cluster_federated_hits = %v: a submit looked a cache up before forwarding", got)
	}
}

// TestRouterFailover: when the hash owner dies, a submission reroutes to
// the survivor, the flip and reroute are visible in cluster_* metrics, and
// the cluster keeps serving end to end.
func TestRouterFailover(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	rt, srv, reg := newTestRouter(t, w0, w1)

	// Find a request owned by each node so we can kill a known owner.
	victim, survivor := w0, w1
	req := serve.JobRequest{Bench: "mm"}
	canonical, _ := serve.Canonicalize(req)
	if rt.ring.Owner(serve.Hash(canonical)) == "node1" {
		victim, survivor = w1, w0
	}
	victim.srv.Close() // SIGKILL equivalent: connections refused from now on

	st, code := submitVia(t, srv.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("failover submit = %d, want 202", code)
	}
	if st.Node != survivor.name {
		t.Fatalf("failover routed to %s, want survivor %s", st.Node, survivor.name)
	}
	res := waitDone(t, srv.URL, st.ID)
	if want := stubOutput(canonical); res.Output != want.Text {
		t.Fatalf("failover output = %q, want %q", res.Output, want.Text)
	}
	snap := reg.Snapshot()
	if got := snap.SumCounters("cluster_reroutes"); got < 1 {
		t.Fatalf("cluster_reroutes = %v, want >= 1", got)
	}
	if got := snap.SumCounters("cluster_node_health_flips", obs.L("node", victim.name)); got < 1 {
		t.Fatalf("no health flip recorded for dead node %s", victim.name)
	}
	// readyz stays 200: one survivor still serves.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with one survivor = %d, want 200", resp.StatusCode)
	}
}

// TestRouterSSEStreamAndResume: the SSE stream proxies through the router
// with id: fields intact, and a reconnect with Last-Event-ID replays only
// the tail — the photon-ctl watch resume path, cluster edition.
func TestRouterSSEStreamAndResume(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	_, srv, _ := newTestRouter(t, w0, w1)

	st, _ := submitVia(t, srv.URL, serve.JobRequest{Bench: "mm"})
	waitDone(t, srv.URL, st.ID)

	ids, events := readSSE(t, srv.URL, st.ID, 0)
	if len(events) < 2 || events[len(events)-1] != "result" {
		t.Fatalf("full stream = %v, want lifecycle ending in result", events)
	}
	for i, id := range ids {
		if id != uint64(i)+1 {
			t.Fatalf("ids = %v, want 1..n", ids)
		}
	}
	// Resume after the penultimate event: exactly the terminal one replays.
	resumeIDs, resumeEvents := readSSE(t, srv.URL, st.ID, ids[len(ids)-2])
	if len(resumeEvents) != 1 || resumeEvents[0] != "result" {
		t.Fatalf("resume replayed %v, want just the result event", resumeEvents)
	}
	if resumeIDs[0] != ids[len(ids)-1] {
		t.Fatalf("resume id = %d, want %d", resumeIDs[0], ids[len(ids)-1])
	}
}

// readSSE reads a finished job's event stream via the router, returning the
// id: values and event: types in order.
func readSSE(t *testing.T, base, id string, lastEventID uint64) ([]uint64, []string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	var (
		ids    []uint64
		events []string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			var id uint64
			fmt.Sscanf(v, "%d", &id)
			ids = append(ids, id)
		}
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, v)
		}
	}
	return ids, events
}

// TestRouterMetricsFederation: one scrape of the router yields every node's
// serve_* metrics under node labels plus the router's cluster_* metrics,
// in JSON and in Prometheus text.
func TestRouterMetricsFederation(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	_, srv, _ := newTestRouter(t, w0, w1)

	st, _ := submitVia(t, srv.URL, serve.JobRequest{Bench: "mm"})
	waitDone(t, srv.URL, st.ID)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.SumCounters("cluster_jobs_routed"); got != 1 {
		t.Fatalf("cluster_jobs_routed = %v, want 1", got)
	}
	for _, nodeName := range []string{"node0", "node1"} {
		found := false
		for _, c := range snap.Counters {
			if c.Name == "serve_jobs_submitted" && c.Labels["node"] == nodeName {
				found = true
			}
		}
		if !found {
			t.Fatalf("federated snapshot missing serve_jobs_submitted for %s", nodeName)
		}
	}

	preq, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	preq.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	prom, _ := io.ReadAll(presp.Body)
	if !strings.Contains(string(prom), "cluster_jobs_routed") ||
		!strings.Contains(string(prom), `node="node`) {
		t.Fatalf("prom exposition missing cluster metrics or node labels:\n%s", prom)
	}
}

// TestRouterListAggregates: GET /v1/jobs through the router shows jobs from
// every node under their cluster-scope ids.
func TestRouterListAggregates(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	w1 := newWorker(t, "node1", "")
	_, srv, _ := newTestRouter(t, w0, w1)

	ids := map[string]bool{}
	for _, req := range []serve.JobRequest{{Bench: "mm"}, {Bench: "spmv"}, {Bench: "hist"}} {
		st, _ := submitVia(t, srv.URL, req)
		waitDone(t, srv.URL, st.ID)
		ids[st.ID] = true
	}
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	for _, st := range all {
		if ids[st.ID] {
			delete(ids, st.ID)
			if st.Node == "" {
				t.Fatalf("aggregated job %s missing node attribution", st.ID)
			}
		}
	}
	if len(ids) != 0 {
		t.Fatalf("aggregated list missing router jobs: %v", ids)
	}
}

// TestRouterUnknownJob: an id without a node part, an id naming a node that
// is not a member, and an id the named worker never issued are clean 404s.
func TestRouterUnknownJob(t *testing.T) {
	w0 := newWorker(t, "node0", "")
	_, srv, _ := newTestRouter(t, w0)
	for _, id := range []string{"r999999", "node7.0123456789ab-1", "node0.0123456789ab-1"} {
		for _, suffix := range []string{"", "/result", "/events", "/accuracy"} {
			if code, _ := httpDo(t, http.MethodGet, srv.URL+"/v1/jobs/"+id+suffix); code != http.StatusNotFound {
				t.Errorf("GET /v1/jobs/%s%s = %d, want 404", id, suffix, code)
			}
		}
	}
}

// httpDo issues one bodyless request and returns the status code and body.
func httpDo(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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
// through one router is answered — status, result, event replay, accuracy
// ledger, cancel — by a second router over the same workers and by one built
// after the job finished, with the artifacts the owning worker serves.
func TestRouterHoldsNoJobState(t *testing.T) {
	workers := map[string]*worker{"node0": newWorker(t, "node0", ""), "node1": newWorker(t, "node1", "")}
	_, first, _ := newTestRouter(t, workers["node0"], workers["node1"])
	_, second, _ := newTestRouter(t, workers["node0"], workers["node1"])

	st, _ := submitVia(t, first.URL, serve.JobRequest{Bench: "spmv"})
	waitDone(t, first.URL, st.ID)
	_, later, _ := newTestRouter(t, workers["node0"], workers["node1"])

	ownerURL := workers[st.Node].srv.URL
	workerID := strings.TrimPrefix(st.ID, st.Node+".")
	direct := waitDone(t, ownerURL, workerID)
	_, directAccuracy := httpDo(t, http.MethodGet, ownerURL+"/v1/jobs/"+workerID+"/accuracy")
	if direct.Output == "" || len(directAccuracy) == 0 {
		t.Fatalf("owner %s serves empty artifacts for %s", st.Node, workerID)
	}

	for name, base := range map[string]string{"second router": second.URL, "router built afterwards": later.URL} {
		code, body := httpDo(t, http.MethodGet, base+"/v1/jobs/"+st.ID)
		var status serve.JobStatus
		if err := json.Unmarshal(body, &status); err != nil || code != http.StatusOK {
			t.Fatalf("%s: status = %d %s (%v)", name, code, body, err)
		}
		if status.ID != st.ID || status.Node != st.Node || status.State != serve.StateDone {
			t.Errorf("%s: status = %+v, want done job %s on %s", name, status, st.ID, st.Node)
		}
		res := waitDone(t, base, st.ID)
		if res.ID != st.ID || res.Output != direct.Output || res.JSONL != direct.JSONL || res.Accuracy != direct.Accuracy {
			t.Errorf("%s: result differs from the owner's:\nrouter: %+v\nowner:  %+v", name, res, direct)
		}
		if _, events := readSSE(t, base, st.ID, 0); len(events) < 2 || events[len(events)-1] != "result" {
			t.Errorf("%s: event replay = %v, want the lifecycle ending in result", name, events)
		}
		if code, acc := httpDo(t, http.MethodGet, base+"/v1/jobs/"+st.ID+"/accuracy"); code != http.StatusOK || !bytes.Equal(acc, directAccuracy) {
			t.Errorf("%s: accuracy = %d %q, want the owner's %q", name, code, acc, directAccuracy)
		}
		code, body = httpDo(t, http.MethodDelete, base+"/v1/jobs/"+st.ID)
		if err := json.Unmarshal(body, &status); err != nil || code != http.StatusOK || status.ID != st.ID {
			t.Errorf("%s: cancel = %d %s (%v), want 200 under id %s", name, code, body, err, st.ID)
		}
	}
}

// TestRouterClientCancelLeavesNodesHealthy: a caller that gives up on its own
// request — here by cancelling while both workers sit on the forwarded
// submit — has told the router nothing about the workers. Both stay healthy
// and routable, and no reroute is counted.
func TestRouterClientCancelLeavesNodesHealthy(t *testing.T) {
	entered := make(chan struct{}, 2) // one slot per worker: a send never blocks
	nodes := map[string]string{}
	for _, name := range []string{"node0", "node1"} {
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) // the server notices a hang-up only past the body
			entered <- struct{}{}
			<-r.Context().Done() // never answers; ends when the router hangs up
		}))
		t.Cleanup(slow.Close)
		nodes[name] = slow.URL
	}
	reg := obs.NewRegistry()
	rt, err := NewRouter(Config{Nodes: nodes, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	handled := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.Handler().ServeHTTP(w, r)
		close(handled)
	}))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(`{"bench":"mm"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // the submit is parked on the hash owner
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("the cancelled request got an answer")
	}
	<-handled

	if got := len(rt.healthyNodes()); got != 2 {
		t.Errorf("%d of 2 nodes healthy after one client cancelled its own request", got)
	}
	if got := reg.Snapshot().SumCounters("cluster_reroutes"); got != 0 {
		t.Errorf("cluster_reroutes = %v, want 0", got)
	}
}
