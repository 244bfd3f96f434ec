package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"photon/internal/buildinfo"
	"photon/internal/obs"
)

// Server is the HTTP face of a Scheduler. Create with NewServer, mount via
// Handler (a plain http.Handler, so callers wrap it in their own
// middleware or serve it directly).
type Server struct {
	sched *Scheduler
	reg   *obs.Registry
	mux   *http.ServeMux
}

// NewServer wires the REST API around sched. reg is the registry /metrics
// dumps — pass the same one given to the scheduler so serve_* counters,
// engine telemetry and simulator stats land in one snapshot. /metrics
// serves JSON by default and Prometheus text exposition under content
// negotiation, with Go runtime vitals sampled per scrape and the binary's
// identity as a photon_build_info gauge.
func NewServer(sched *Scheduler, reg *obs.Registry) *Server {
	s := &Server{sched: sched, reg: reg, mux: http.NewServeMux()}
	bi := buildinfo.Get()
	reg.Gauge("photon_build_info",
		obs.L("version", bi.Version), obs.L("revision", bi.Revision), obs.L("go", bi.Go)).Set(1)
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/jobs/{id}/accuracy", s.accuracy)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/cache/{hash}", s.cache)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /debug/flight", s.flight)
	s.mux.Handle("GET /metrics", obs.HandlerWithSampler(reg, obs.SampleRuntime))
	return s
}

// Handler returns the server's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing to do about a write error mid-response
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// retryAfterSeconds renders a backoff duration as whole seconds, rounding up
// and never below 1: RFC 9110 Retry-After carries integer seconds, and a
// truncated "0" would tell well-behaved clients to hammer a full queue
// immediately.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// MaxRequestBytes caps the body of POST /v1/jobs, on a worker and on the
// cluster router alike.
const MaxRequestBytes = 1 << 20

// ReadJobRequest reads the body of a POST /v1/jobs, at most MaxRequestBytes
// of it, and decodes it strictly (unknown fields are errors). It returns the
// raw bytes too, which is what the cluster router forwards.
func ReadJobRequest(w http.ResponseWriter, r *http.Request) (JobRequest, []byte, error) {
	var req JobRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		return req, nil, fmt.Errorf("reading request body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("bad request body: %w", err)
	}
	return req, body, nil
}

// submit is POST /v1/jobs: 202 for admitted work, 200 for a cache hit,
// 400 for invalid requests, 429 (+ Retry-After) when the queue is full,
// 503 while draining.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	req, _, err := ReadJobRequest(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.sched.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.sched.RetryAfter())))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if st.CacheHit {
		code = http.StatusOK // answered right away, nothing pending
	}
	writeJSON(w, code, st)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.List())
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// result is GET /v1/jobs/{id}/result. A done job returns 200 with the
// artifacts; failed maps to 500, cancelled to 410, a still-running job to
// 409 (poll again), and an unknown id to 404.
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	res, finished, err := s.sched.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !finished {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; poll again or stream /events", res.ID, res.State))
		return
	}
	switch res.State {
	case StateDone:
		writeJSON(w, http.StatusOK, res)
	case StateCancelled:
		writeJSON(w, http.StatusGone, res)
	default:
		writeJSON(w, http.StatusInternalServerError, res)
	}
}

// accuracy is GET /v1/jobs/{id}/accuracy: the job's per-kernel sampling-
// accuracy ledger as raw JSON lines. 404 for unknown jobs, 409 while the
// job is still running, 204 when the run produced no ledger (nothing was
// sampled, or the job did not finish successfully).
func (s *Server) accuracy(w http.ResponseWriter, r *http.Request) {
	res, finished, err := s.sched.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !finished {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; poll again or stream /events", res.ID, res.State))
		return
	}
	if res.Accuracy == "" {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprint(w, res.Accuracy)
}

// flight is GET /debug/flight: a dump of the daemon's flight recorder —
// the bounded ring of recent scheduler/tier/job events. JSON by default;
// ?format=text returns the same terminal-readable rendering the SIGQUIT
// handler writes to stderr.
func (s *Server) flight(w http.ResponseWriter, r *http.Request) {
	f := s.sched.Flight()
	if f == nil {
		writeErr(w, http.StatusNotFound, errors.New("flight recorder disabled"))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = f.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = f.WriteJSON(w)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// events is GET /v1/jobs/{id}/events: an SSE stream that replays the job's
// lifecycle so far and then follows it live until the terminal event. A
// heartbeat comment every 15s keeps idle proxies from closing the stream.
// Every event carries its hub sequence number as the SSE id, and a client
// reconnecting with Last-Event-ID resumes after that event instead of
// replaying the whole stream — which is what makes `photon-ctl watch`
// survive a dropped proxy connection without duplicating events.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	var after uint64
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		// A malformed id is treated as "no resume point": replay everything
		// rather than reject the reconnect.
		if v, err := strconv.ParseUint(lei, 10, 64); err == nil {
			after = v
		}
	}
	replay, live, cancel, err := s.sched.SubscribeFrom(r.PathValue("id"), after)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer cancel()

	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
		fl.Flush()
		return true
	}
	for _, ev := range replay {
		if !send(ev) {
			return
		}
	}
	if live == nil {
		return // job already finished; replay ended with the terminal event
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !send(ev) {
				return
			}
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// healthz reports liveness plus the build identity, so operators can tell
// which binary is answering.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string         `json:"status"`
		Build    buildinfo.Info `json:"build"`
		Draining bool           `json:"draining"`
	}{"ok", buildinfo.Get(), s.sched.Draining()})
}

// readyz reports readiness: 503 once draining starts, so load balancers
// stop routing new jobs while in-flight ones finish. The 200 body carries
// the scheduler's load signal (queue depth, in-flight count, workers) for
// the cluster router's health table; probes that only check the status code
// are unaffected.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		writeErr(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Load
	}{"ok", s.sched.Load()})
}

// cache is GET /v1/cache/{hash}: a result-store lookup by content address.
// 404 means this node has never completed (or has evicted) the request.
func (s *Server) cache(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	out, ok := s.sched.CachedResult(hash)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", hash))
		return
	}
	writeJSON(w, http.StatusOK, CacheEntry{
		Hash: hash, Output: out.Text, JSONL: out.JSONL, Accuracy: out.Accuracy,
	})
}
