package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"photon/internal/buildinfo"
	"photon/internal/obs"
	"photon/internal/serve"
)

// Config sizes a Router. Nodes is the only required field.
type Config struct {
	// Nodes maps node names to photon-serve base URLs. Names are the ring
	// identities (stable across restarts) and the `node` label on every
	// cluster_* metric.
	Nodes map[string]string
	// Replicas is the virtual-node count per worker (<= 0: DefaultReplicas).
	Replicas int
	// ProbeInterval is the /readyz polling period (default 1s); each probe
	// is also bounded by it.
	ProbeInterval time.Duration
	// Metrics receives the cluster_* counters and gauges. The router's
	// /metrics additionally federates every node's snapshot under a node
	// label, so one scrape covers the fleet.
	Metrics *obs.Registry
	// Log receives routing decisions and health transitions. Nil disables.
	Log *obs.Logger
	// Client issues the router's non-streaming upstream requests (submits,
	// status fetches, cache lookups). Nil gets a 30s-timeout client.
	Client *http.Client
}

// Router is the cluster front door: one http.Handler exposing the same API
// surface as a single photon-serve worker, backed by N of them. It keeps no
// per-job state: a cluster-scope job id is "<node>.<worker job id>", so any
// router over the same membership — a second one, or this one restarted —
// answers for any id. Its only soft state is each node's last-probed health.
type Router struct {
	cfg   Config
	ring  *Ring
	nodes map[string]*node
	names []string // sorted node names, for deterministic iteration
	reg   *obs.Registry
	log   *obs.Logger
	mux   *http.ServeMux

	client      *http.Client // JSON round-trips
	probeClient *http.Client // readyz probes (tighter timeout)

	mFederatedHits *obs.Counter
	mReroutes      *obs.Counter
	mProbeErrors   *obs.Counter
	gHealthy       *obs.Gauge
}

// NewRouter validates the membership and builds the router. Call Start to
// begin health probing; the handler works before that (nodes start healthy
// on faith and forward errors correct them).
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	rt := &Router{
		cfg:         cfg,
		nodes:       make(map[string]*node, len(cfg.Nodes)),
		reg:         cfg.Metrics,
		log:         cfg.Log,
		mux:         http.NewServeMux(),
		client:      cfg.Client,
		probeClient: &http.Client{Timeout: cfg.ProbeInterval},

		mFederatedHits: cfg.Metrics.Counter("cluster_federated_hits"),
		mReroutes:      cfg.Metrics.Counter("cluster_reroutes"),
		mProbeErrors:   cfg.Metrics.Counter("cluster_probe_errors"),
		gHealthy:       cfg.Metrics.Gauge("cluster_nodes_healthy"),
	}
	for name, rawURL := range cfg.Nodes {
		n, err := newNode(name, rawURL)
		if err != nil {
			return nil, err
		}
		rt.nodes[name] = n
		rt.names = append(rt.names, name)
	}
	sort.Strings(rt.names)
	rt.ring = NewRing(rt.names, cfg.Replicas)
	rt.gHealthy.Set(float64(len(rt.names)))

	bi := buildinfo.Get()
	cfg.Metrics.Gauge("photon_build_info",
		obs.L("version", bi.Version), obs.L("revision", bi.Revision), obs.L("go", bi.Go)).Set(1)

	rt.mux.HandleFunc("POST /v1/jobs", rt.submit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.list)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.jobJSON)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.jobJSON)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.jobJSON)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/accuracy", rt.jobStream)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.jobStream)
	rt.mux.HandleFunc("GET /v1/cache/{hash}", rt.cache)
	rt.mux.HandleFunc("GET /healthz", rt.healthz)
	rt.mux.HandleFunc("GET /readyz", rt.readyz)
	rt.mux.HandleFunc("GET /metrics", rt.metrics)
	rt.mux.HandleFunc("GET /debug/flight", rt.flight)
	return rt, nil
}

// Handler returns the router's http.Handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start launches the health-probe loop; it stops when ctx ends.
func (rt *Router) Start(ctx context.Context) {
	go rt.probeLoop(ctx)
}

// healthyNodes returns the currently-healthy nodes in name order.
func (rt *Router) healthyNodes() []*node {
	var out []*node
	for _, name := range rt.names {
		if n := rt.nodes[name]; n.Healthy() {
			out = append(out, n)
		}
	}
	return out
}

// nodeBody is one worker's answer to a fan-out GET.
type nodeBody struct {
	name string
	body []byte
}

// gather GETs target (a path, optionally with "?query") from every healthy
// worker at once and returns the 200 bodies in node-name order; a worker
// that fails or answers anything else is left out. accept, when set, is the
// request's Accept header. The aggregating endpoints (list, metrics, flight)
// share it and keep their own merge.
func (rt *Router) gather(ctx context.Context, target, accept string) []nodeBody {
	path, query, _ := strings.Cut(target, "?")
	nodes := rt.healthyNodes()
	bodies := make([][]byte, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			u := n.base.JoinPath(path)
			u.RawQuery = query
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
			if err != nil {
				return
			}
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			if body, err := io.ReadAll(resp.Body); err == nil {
				bodies[i] = body
			}
		}(i, n)
	}
	wg.Wait()
	var out []nodeBody
	for i, body := range bodies {
		if body != nil {
			out = append(out, nodeBody{name: nodes[i].name, body: body})
		}
	}
	return out
}

// preferredNodes resolves a hash's preference order to live node handles,
// healthy ones only.
func (rt *Router) preferredNodes(hash string) []*node {
	var out []*node
	for _, name := range rt.ring.Preference(hash) {
		if n := rt.nodes[name]; n.Healthy() {
			out = append(out, n)
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// submit is POST /v1/jobs at cluster scope: canonicalize to get the content
// hash and forward to the hash's ring owner — the one node whose store will
// ever hold the result, so its scheduler answers a repeat from cache —
// failing over along the preference order when a node turns out to be dead.
// The response is the worker's, with the job id lifted to cluster scope and
// the node name filled in.
func (rt *Router) submit(w http.ResponseWriter, r *http.Request) {
	req, body, err := serve.ReadJobRequest(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	canonical, err := serve.Canonicalize(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	prefs := rt.preferredNodes(serve.Hash(canonical))
	if len(prefs) == 0 {
		writeErr(w, http.StatusServiceUnavailable, errors.New("cluster: no healthy nodes"))
		return
	}

	// Walk the preference order past nodes that fail at the connection
	// level. HTTP-level rejections (429 queue full, 400) are the worker's
	// answer, not a failover trigger — pass them through.
	for _, n := range prefs {
		st, code, err := rt.forwardSubmit(r.Context(), n, body)
		if err != nil {
			if r.Context().Err() != nil {
				return // the caller gave up; that says nothing about the node
			}
			if n.markUnhealthy(err) {
				rt.healthFlip(n, false)
			}
			rt.mReroutes.Inc()
			rt.log.Warn("cluster: forward failed, rerouting",
				slog.String("node", n.name), slog.String("error", err.Error()))
			continue
		}
		if code >= 300 {
			// The worker answered; relay its rejection verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			w.Write(st)
			return
		}
		rt.finishSubmit(w, n, code, st)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, errors.New("cluster: every candidate node failed"))
}

// forwardSubmit posts body to n. A nil error with code >= 300 is the
// worker's own rejection; a non-nil error is a transport failure (failover).
func (rt *Router) forwardSubmit(ctx context.Context, n *node, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		n.base.JoinPath("/v1/jobs").String(), bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}

// finishSubmit relays the worker's response with the job id lifted to
// cluster scope and the node attribution filled in.
func (rt *Router) finishSubmit(w http.ResponseWriter, n *node, code int, data []byte) {
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: bad worker response: %w", err))
		return
	}
	rt.reg.Counter("cluster_jobs_routed", obs.L("node", n.name)).Inc()
	st.ID = n.name + "." + st.ID
	st.Node = n.name
	if rt.log.Enabled(slog.LevelDebug) {
		rt.log.Debug("cluster: job routed", slog.String("job", st.ID), slog.String("node", n.name))
	}
	writeJSON(w, code, st)
}

// locate splits a cluster-scope job id, "<node>.<worker job id>", at its
// last dot (worker ids hold none; node names may).
func (rt *Router) locate(id string) (*node, string, bool) {
	i := strings.LastIndexByte(id, '.')
	if i < 0 {
		return nil, "", false
	}
	n, ok := rt.nodes[id[:i]]
	return n, id[i+1:], ok
}

// jobJSON handles the non-streaming per-job endpoints (status, result,
// cancel): forward to the owning worker with its own id, then rewrite the
// response's identity fields back to cluster scope. The rewrite decodes
// with UseNumber so every other field round-trips losslessly.
func (rt *Router) jobJSON(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, remoteID, ok := rt.locate(id)
	if !ok {
		writeErr(w, http.StatusNotFound, serve.ErrUnknownJob)
		return
	}
	path := "/v1/jobs/" + remoteID
	if strings.HasSuffix(r.URL.Path, "/result") {
		path += "/result"
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		n.base.JoinPath(path).String(), nil)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return // the caller gave up; that says nothing about the node
		}
		if n.markUnhealthy(err) {
			rt.healthFlip(n, false)
		}
		writeErr(w, http.StatusBadGateway,
			fmt.Errorf("cluster: node %s unreachable: %w", n.name, err))
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		// Not a JSON object (shouldn't happen): relay verbatim.
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		w.Write(data)
		return
	}
	if _, ok := m["id"]; ok {
		m["id"] = id
		m["node"] = n.name
	}
	writeJSON(w, resp.StatusCode, m)
}

// jobStream handles the streaming per-job endpoints (SSE events, accuracy
// bodies) by reverse-proxying to the owning worker with the path rewritten
// to the worker's id. Headers pass through both ways, so Last-Event-ID
// resume and the SSE id: fields work unchanged across the router.
func (rt *Router) jobStream(w http.ResponseWriter, r *http.Request) {
	n, remoteID, ok := rt.locate(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, serve.ErrUnknownJob)
		return
	}
	suffix := "/events"
	if strings.HasSuffix(r.URL.Path, "/accuracy") {
		suffix = "/accuracy"
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/jobs/" + remoteID + suffix
	r2.RequestURI = "" // outgoing requests must not set it
	n.proxy.ServeHTTP(w, r2)
}

// cache is the cluster-scope GET /v1/cache/{hash}: ask the hash owner
// first, then every other healthy node (a failover may have left the result
// there), and relay the first hit. 404 only when no live node holds the
// entry.
func (rt *Router) cache(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	for _, n := range rt.preferredNodes(hash) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			n.base.JoinPath("/v1/cache/"+hash).String(), nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			rt.mFederatedHits.Inc()
			rt.reg.Counter("cluster_federated_hits_node", obs.L("node", n.name)).Inc()
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			resp.Body.Close()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("no cached result for %s on any node", hash))
}

// list aggregates GET /v1/jobs across healthy workers, oldest first. Every
// job appears under its cluster-scope id, whichever router — or no router,
// for a job submitted straight to a worker — accepted it.
func (rt *Router) list(w http.ResponseWriter, r *http.Request) {
	var all []serve.JobStatus
	for _, nb := range rt.gather(r.Context(), "/v1/jobs", "") {
		var sts []serve.JobStatus
		if json.Unmarshal(nb.body, &sts) != nil {
			continue
		}
		for i := range sts {
			sts[i].ID = nb.name + "." + sts[i].ID
			sts[i].Node = nb.name
		}
		all = append(all, sts...)
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].CreatedAt.Equal(all[j].CreatedAt) {
			return all[i].CreatedAt.Before(all[j].CreatedAt)
		}
		return all[i].ID < all[j].ID
	})
	if all == nil {
		all = []serve.JobStatus{}
	}
	writeJSON(w, http.StatusOK, all)
}

// healthz reports the router's liveness, build identity and the per-node
// health table.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string         `json:"status"`
		Role   string         `json:"role"`
		Build  buildinfo.Info `json:"build"`
		Nodes  []nodeStatus   `json:"nodes"`
	}{"ok", "router", buildinfo.Get(), rt.nodeStatuses()})
}

// readyz is ready while at least one worker is: the cluster can still serve
// (degraded) with a single survivor.
func (rt *Router) readyz(w http.ResponseWriter, r *http.Request) {
	statuses := rt.nodeStatuses()
	healthy := 0
	for _, st := range statuses {
		if st.Healthy {
			healthy++
		}
	}
	body := struct {
		Status  string       `json:"status"`
		Healthy int          `json:"healthy_nodes"`
		Nodes   []nodeStatus `json:"nodes"`
	}{"ok", healthy, statuses}
	if healthy == 0 {
		body.Status = "no healthy nodes"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (rt *Router) nodeStatuses() []nodeStatus {
	out := make([]nodeStatus, 0, len(rt.names))
	for _, name := range rt.names {
		out = append(out, rt.nodes[name].status())
	}
	return out
}

// metrics federates the fleet's snapshots: every healthy worker's /metrics
// (JSON) is fetched, relabeled with its node name, and merged with the
// router's own cluster_* registry. One scrape — JSON or Prometheus text
// under the same content negotiation workers use — covers the cluster.
func (rt *Router) metrics(w http.ResponseWriter, r *http.Request) {
	merged := rt.reg.Snapshot()
	for _, nb := range rt.gather(r.Context(), "/metrics", "application/json") {
		var snap obs.Snapshot
		if json.Unmarshal(nb.body, &snap) != nil {
			continue
		}
		for _, c := range snap.Counters {
			c.Labels = withNode(c.Labels, nb.name)
			merged.Counters = append(merged.Counters, c)
		}
		for _, g := range snap.Gauges {
			g.Labels = withNode(g.Labels, nb.name)
			merged.Gauges = append(merged.Gauges, g)
		}
		for _, h := range snap.Histograms {
			h.Labels = withNode(h.Labels, nb.name)
			merged.Histograms = append(merged.Histograms, h)
		}
	}
	if obs.WantsProm(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WriteProm(w, merged)
		return
	}
	writeJSON(w, http.StatusOK, merged)
}

func withNode(labels map[string]string, name string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		out[k] = v
	}
	out["node"] = name
	return out
}

// flight aggregates /debug/flight across healthy workers: with
// ?format=text, each node's terminal rendering under a banner; otherwise a
// JSON object keyed by node name.
func (rt *Router) flight(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, nb := range rt.gather(r.Context(), "/debug/flight?format=text", "") {
			fmt.Fprintf(w, "== %s ==\n", nb.name)
			w.Write(nb.body)
		}
		return
	}
	out := make(map[string]json.RawMessage)
	for _, nb := range rt.gather(r.Context(), "/debug/flight", "") {
		out[nb.name] = json.RawMessage(nb.body)
	}
	writeJSON(w, http.StatusOK, out)
}
