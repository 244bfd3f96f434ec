package obs

import (
	"net/http"
	"strings"
)

// HandlerWithSampler exposes a registry's Snapshot over HTTP with content
// negotiation: the default response is the same indented JSON document
// WriteFile produces (the metrics.json artifact schema, kept for existing
// tooling), while an Accept header preferring text/plain — what a
// Prometheus scraper sends — selects the 0.0.4 text exposition. A nil
// registry serves the empty snapshot, keeping the endpoint total. sample,
// when non-nil, runs before each snapshot is taken; photon-serve passes
// SampleRuntime so every scrape carries fresh runtime vitals.
func HandlerWithSampler(r *Registry, sample func(*Registry)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if sample != nil {
			sample(r)
		}
		// Snapshots are cheap (one mutex hold to copy handles, then atomic
		// reads), so every scrape sees fresh values; no caching.
		if wantsProm(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", PromContentType)
			_ = WriteProm(w, r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// Headers are out after the first write; on error all we can do is
		// drop the conn.
		_ = r.WriteJSON(w)
	})
}

// wantsProm reports whether an Accept header prefers the Prometheus text
// format over JSON. Prometheus sends something like
//
//	application/openmetrics-text;...;q=0.5,text/plain;version=0.0.4;q=0.4,*/*;q=0.1
//
// Full q-value negotiation is overkill for two formats: any explicit
// text/plain (or openmetrics) clause wins unless application/json appears
// before it.
func wantsProm(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "application/json":
			return false
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}
