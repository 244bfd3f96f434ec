// Package obs is the repo's unified telemetry layer: a concurrency-safe
// metrics registry (counters, gauges, histograms with named labels), a span
// tracer that exports Chrome trace-event JSON loadable by chrome://tracing
// and Perfetto, and pprof profiling helpers shared by every command.
//
// The simulator layers (timing machine, memory hierarchy), the Photon
// controller and the harness engine all publish into one Registry per run;
// the registry's Snapshot serializes as the run's metrics.json artifact.
// Instrumentation is optional everywhere: metric handles are nil-safe, so a
// layer that was never wired to a registry pays a nil check and nothing
// else.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string
	Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is usable;
// all methods are safe on a nil receiver (no-ops), so optional
// instrumentation needs no branching at call sites.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds v (CAS loop; concurrent adders never lose updates).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed upper-bound buckets
// (cumulative on export, like Prometheus). Nil-safe like Counter.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; observations above them overflow
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor², …
// — the standard latency-bucket shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.ObserveN(v, 1)
}

// ObserveN records n identical samples with one round of atomics (the
// memory hierarchy publishes its per-level latency tallies this way).
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.buckets[idx].Add(n) // len(buckets) == len(bounds)+1; last is overflow
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry holds a run's metrics, keyed by (name, labels). Safe for
// concurrent use: handle lookup takes a mutex, metric updates are atomic. A
// nil *Registry is a valid "telemetry off" registry — every getter returns
// a nil (no-op) handle.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry
}

type metricEntry struct {
	name    string
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metricEntry)}
}

// key serializes (name, labels) into a stable map key; labels are sorted so
// declaration order never matters.
func key(name string, labels []Label) (string, []Label) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

func (r *Registry) lookup(name string, labels []Label) (*metricEntry, string, []Label) {
	k, ls := key(name, labels)
	e := r.metrics[k]
	return e, k, ls
}

// Counter returns (registering on first use) the counter for (name, labels).
// Nil registries return a nil, no-op counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, k, ls := r.lookup(name, labels)
	if e == nil {
		e = &metricEntry{name: name, labels: ls, counter: &Counter{}}
		r.metrics[k] = e
	}
	if e.counter == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", k))
	}
	return e.counter
}

// Gauge returns (registering on first use) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, k, ls := r.lookup(name, labels)
	if e == nil {
		e = &metricEntry{name: name, labels: ls, gauge: &Gauge{}}
		r.metrics[k] = e
	}
	if e.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", k))
	}
	return e.gauge
}

// Histogram returns (registering on first use) the histogram for (name,
// labels). bounds are the bucket upper bounds and must be sorted ascending;
// they are fixed by the first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) || len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs sorted, non-empty bucket bounds", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, k, ls := r.lookup(name, labels)
	if e == nil {
		h := &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
		e = &metricEntry{name: name, labels: ls, hist: h}
		r.metrics[k] = e
	}
	if e.hist == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different type", k))
	}
	return e.hist
}

// Snapshot is the serializable state of a registry: the metrics.json
// artifact schema. Entries are sorted by name then labels, so two
// registries fed the same deterministic values serialize byte-identically.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramSnapshot is one histogram's exported state; Buckets are
// cumulative counts of observations <= LE, with the +Inf bucket last.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	Buckets []BucketSnapshot  `json:"buckets"`
}

// BucketSnapshot is one cumulative histogram bucket. LE is +Inf for the
// overflow bucket (serialized as the string "+Inf").
type BucketSnapshot struct {
	LE    jsonFloat `json:"le"`
	Count uint64    `json:"count"`
}

// jsonFloat marshals +Inf as a JSON string (JSON has no infinity literal).
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(f), +1) {
		return []byte(`"+Inf"`), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON implements json.Unmarshaler (tests and tools read
// snapshots back).
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == `"+Inf"` {
		*f = jsonFloat(math.Inf(+1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures the registry's current state. Nil registries snapshot
// empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	entries := make([]*metricEntry, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		entries = append(entries, r.metrics[k])
	}
	r.mu.Unlock()

	for _, e := range entries {
		switch {
		case e.counter != nil:
			s.Counters = append(s.Counters, CounterSnapshot{
				Name: e.name, Labels: labelMap(e.labels), Value: e.counter.Value(),
			})
		case e.gauge != nil:
			s.Gauges = append(s.Gauges, GaugeSnapshot{
				Name: e.name, Labels: labelMap(e.labels), Value: e.gauge.Value(),
			})
		case e.hist != nil:
			h := e.hist
			hs := HistogramSnapshot{
				Name: e.name, Labels: labelMap(e.labels),
				Count: h.Count(), Sum: h.Sum(),
			}
			if hs.Count > 0 {
				hs.Mean = hs.Sum / float64(hs.Count)
			}
			cum := uint64(0)
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				le := math.Inf(+1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: jsonFloat(le), Count: cum})
			}
			s.Histograms = append(s.Histograms, hs)
		}
	}
	return s
}

// SumCounters sums the counters with the given name whose labels are a
// superset of the given ones. Tools use it to derive rates (e.g. cache hit
// rates) from a snapshot.
func (s Snapshot) SumCounters(name string, labels ...Label) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			if c.Labels[l.Key] != l.Value {
				match = false
				break
			}
		}
		if match {
			total += c.Value
		}
	}
	return total
}

// WriteJSON serializes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the snapshot to path (the metrics.json artifact).
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing metrics to %s: %w", path, err)
	}
	return f.Close()
}
