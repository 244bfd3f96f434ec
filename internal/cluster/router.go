package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"photon/internal/obs"
	"photon/internal/serve"
)

// Config names a Router's workers.
type Config struct {
	// Nodes maps node names to photon-serve base URLs. Names are the ring
	// identities and the prefix of every job id the router hands out.
	Nodes map[string]string
	// Metrics is accepted for the benchmark's call and left untouched: the
	// router records nothing, so the benchmark's cluster_* counts read 0.
	Metrics *obs.Registry
}

// Router is one http.Handler in front of N photon-serve workers. It serves
// POST /v1/jobs, GET /v1/jobs/{id} and GET /v1/jobs/{id}/result and keeps no
// per-job state: a job id it hands out is "<node>.<worker job id>", so any
// router over the same membership answers for any id.
type Router struct {
	ring   *Ring
	nodes  map[string]*url.URL
	client *http.Client
	mux    *http.ServeMux
}

// NewRouter validates the membership and builds the router.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	rt := &Router{
		nodes:  make(map[string]*url.URL, len(cfg.Nodes)),
		client: &http.Client{Timeout: 30 * time.Second},
		mux:    http.NewServeMux(),
	}
	names := make([]string, 0, len(cfg.Nodes))
	for name, rawURL := range cfg.Nodes {
		u, err := url.Parse(rawURL)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", name, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %s: need an absolute URL, got %q", name, rawURL)
		}
		rt.nodes[name] = u
		names = append(names, name)
	}
	rt.ring = NewRing(names, 0)

	rt.mux.HandleFunc("POST /v1/jobs", rt.submit)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.jobJSON)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.jobJSON)
	return rt, nil
}

// Handler returns the router's http.Handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

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

// submit is POST /v1/jobs: canonicalize to get the content hash and forward
// to the hash's ring owner — the one node whose store will ever hold the
// result, so its scheduler answers a repeat from cache. The response is the
// worker's, with the job id lifted to "<node>.<worker job id>".
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
	name := rt.ring.Owner(serve.Hash(canonical))
	fwd, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		rt.nodes[name].JoinPath("/v1/jobs").String(), bytes.NewReader(body))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	fwd.Header.Set("Content-Type", "application/json")
	data, code, err := rt.do(fwd)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: node %s: %w", name, err))
		return
	}
	if code >= 300 {
		// The worker answered (429 queue full, 400, 503); relay it verbatim.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(data)
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: bad worker response: %w", err))
		return
	}
	st.ID = name + "." + st.ID
	writeJSON(w, code, st)
}

// do sends req upstream and returns the body and status code. A non-nil
// error is a transport failure; a worker's own rejection is a code >= 300.
func (rt *Router) do(req *http.Request) ([]byte, int, error) {
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

// jobJSON is GET /v1/jobs/{id} and GET /v1/jobs/{id}/result: split the id
// at its last dot (worker ids hold none; node names may), forward to the
// named worker with its own id, and rewrite the response's id back. The
// rewrite decodes with UseNumber so every other field round-trips
// losslessly.
func (rt *Router) jobJSON(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	i := strings.LastIndexByte(id, '.')
	if i < 0 {
		writeErr(w, http.StatusNotFound, serve.ErrUnknownJob)
		return
	}
	name, remoteID := id[:i], id[i+1:]
	base, ok := rt.nodes[name]
	if !ok {
		writeErr(w, http.StatusNotFound, serve.ErrUnknownJob)
		return
	}
	path := "/v1/jobs/" + remoteID
	if strings.HasSuffix(r.URL.Path, "/result") {
		path += "/result"
	}
	fwd, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base.JoinPath(path).String(), nil)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	data, code, err := rt.do(fwd)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: node %s: %w", name, err))
		return
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: bad worker response: %w", err))
		return
	}
	if _, ok := m["id"]; ok {
		m["id"] = id
	}
	writeJSON(w, code, m)
}
