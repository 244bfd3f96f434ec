package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"

	"photon/internal/obs"
	"photon/internal/serve"
)

// node is the router's view of one photon-serve worker: its address, a
// streaming-capable reverse proxy, and the health/load soft state the probe
// loop maintains.
type node struct {
	name string
	base *url.URL
	// proxy streams pass-through endpoints (SSE events, accuracy bodies).
	// FlushInterval -1 flushes every write immediately — buffering an SSE
	// stream inside the router would stall live progress events.
	proxy *httputil.ReverseProxy

	mu      sync.Mutex
	probed  bool // first probe completed; before it the node is routable on faith
	healthy bool
	load    serve.Load
	lastErr error
}

func newNode(name, rawURL string) (*node, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", name, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: node %s: need an absolute URL, got %q", name, rawURL)
	}
	p := httputil.NewSingleHostReverseProxy(u)
	p.FlushInterval = -1
	return &node{name: name, base: u, proxy: p, healthy: true}, nil
}

// Healthy reports the node's last-known health. A node that has never been
// probed counts as healthy so the router can serve before the first probe
// tick completes; the first forward error corrects the optimism.
func (n *node) Healthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}

// nodeStatus is the per-node entry in the router's /healthz and /readyz.
type nodeStatus struct {
	Name    string     `json:"name"`
	URL     string     `json:"url"`
	Healthy bool       `json:"healthy"`
	Load    serve.Load `json:"load"`
	Error   string     `json:"error,omitempty"`
}

func (n *node) status() nodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := nodeStatus{
		Name: n.name, URL: n.base.String(),
		Healthy: n.healthy, Load: n.load,
	}
	if n.lastErr != nil {
		st.Error = n.lastErr.Error()
	}
	return st
}

// readyzBody is the worker /readyz JSON: {"status": "ok", ...load fields}.
type readyzBody struct {
	Status string `json:"status"`
	serve.Load
}

// probe polls the node's /readyz once and records the outcome. Returns the
// health transition (flipped true when the state changed against a known
// previous state — the first probe establishes, it does not flip).
func (n *node) probe(ctx context.Context, client *http.Client) (healthy, flipped bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base.JoinPath("/readyz").String(), nil)
	if err != nil {
		return n.record(false, serve.Load{}, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return n.record(false, serve.Load{}, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return n.record(false, serve.Load{}, fmt.Errorf("readyz: HTTP %d", resp.StatusCode))
	}
	var body readyzBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		// A bare 200 with an unparsable body still means ready (the readyz
		// contract predates the load signal); just no load data.
		return n.record(true, serve.Load{}, nil)
	}
	return n.record(true, body.Load, nil)
}

func (n *node) record(healthy bool, load serve.Load, err error) (bool, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	flipped := n.probed && n.healthy != healthy
	n.probed = true
	n.healthy = healthy
	n.load = load
	n.lastErr = err
	return healthy, flipped
}

// markUnhealthy records a forward failure observed outside the probe loop
// (a connection error mid-request). Reports whether this was a flip.
func (n *node) markUnhealthy(err error) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	flipped := n.healthy
	n.probed = true
	n.healthy = false
	n.lastErr = err
	return flipped
}

// probeLoop polls every node until ctx ends. Each tick updates health, load
// and the cluster_* health gauges, and logs flips.
func (rt *Router) probeLoop(ctx context.Context) {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		rt.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeAll probes every node once, concurrently, and refreshes the health
// gauges. Exported behavior is through Start; tests call it directly.
func (rt *Router) probeAll(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeInterval)
	defer cancel()
	var wg sync.WaitGroup
	for _, n := range rt.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			healthy, flipped := n.probe(pctx, rt.probeClient)
			if !healthy {
				rt.mProbeErrors.Inc()
			}
			if flipped {
				rt.healthFlip(n, healthy)
			}
			st := n.status()
			rt.reg.Gauge("cluster_node_healthy", obs.L("node", n.name)).Set(b2f(healthy))
			rt.reg.Gauge("cluster_node_queue_depth", obs.L("node", n.name)).Set(float64(st.Load.QueueDepth))
			rt.reg.Gauge("cluster_node_in_flight", obs.L("node", n.name)).Set(float64(st.Load.InFlight))
		}(n)
	}
	wg.Wait()
	rt.gHealthy.Set(float64(len(rt.healthyNodes())))
}

// healthFlip records a node health transition: counter, gauge and log.
func (rt *Router) healthFlip(n *node, healthy bool) {
	rt.reg.Counter("cluster_node_health_flips", obs.L("node", n.name)).Inc()
	if healthy {
		rt.log.Info("cluster: node recovered", slog.String("node", n.name))
	} else {
		st := n.status()
		rt.log.Warn("cluster: node unhealthy",
			slog.String("node", n.name), slog.String("error", st.Error))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
