package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"photon/internal/cluster"
	"photon/internal/obs"
	"photon/internal/serve"
)

// Topology constants of the serve phase (see README: one process, two
// single-worker schedulers with their own disk CAS, one router).
const (
	numWorkers       = 2
	maxCachedResults = 8
	queueDepth       = 64 // admits a client's whole cold batch
	pollInterval     = 10 * time.Millisecond
	jobTimeout       = 60 * time.Second
)

// servedKey is one entry of the request catalogue.
type servedKey struct {
	req   serve.JobRequest
	hash  string
	owner int // index of the worker the ring assigns the hash to
}

func workerName(i int) string { return fmt.Sprintf("w%d", i) }

// workerRing is the consistent-hash ring the router builds over the worker
// names, and each name's index.
func workerRing() (*cluster.Ring, map[string]int) {
	names := make([]string, numWorkers)
	index := make(map[string]int, numWorkers)
	for i := range names {
		names[i] = workerName(i)
		index[names[i]] = i
	}
	return cluster.NewRing(names, 0), index
}

// catalogue expands a shape into its keys, in a fixed order, with the owner
// the router's consistent-hash ring will pick for each.
func catalogue(sh serveShape) ([]servedKey, error) {
	ring, index := workerRing()
	var keys []servedKey
	for _, c := range sh.Cells {
		for _, arch := range sh.Archs {
			for _, mode := range sh.Modes {
				req := serve.JobRequest{Bench: c.Bench, Size: c.Size, Arch: arch,
					Modes: []string{mode}, FixedWall: true}
				canon, err := serve.Canonicalize(req)
				if err != nil {
					return nil, fmt.Errorf("catalogue %s/%d %s [%s]: %w", c.Bench, c.Size, arch, mode, err)
				}
				hash := serve.Hash(canon)
				keys = append(keys, servedKey{req: req, hash: hash, owner: index[ring.Owner(hash)]})
			}
		}
	}
	return keys, nil
}

// worker is one photon-serve node hosted in this process.
type worker struct {
	reg   *obs.Registry
	sched *serve.Scheduler
	srv   *httptest.Server
}

// topology is the system under test for served requests: numWorkers worker
// nodes behind one cluster router, all on loopback listeners. The router's
// health-probe loop is left off: it is not on the request path, and a probe
// timing out while both cores simulate would flip a node unhealthy and make
// the routing counts depend on host load.
type topology struct {
	dir     string
	workers []*worker
	rreg    *obs.Registry
	router  *httptest.Server
	client  *http.Client
}

// startTopology opens the CAS directories under dir and starts the workers
// and the router; its wall time is the serve half of setup_s.
func startTopology(dir string) (*topology, error) {
	t := &topology{dir: dir, rreg: obs.NewRegistry()}
	nodes := make(map[string]string, numWorkers)
	for i := 0; i < numWorkers; i++ {
		reg := obs.NewRegistry()
		cas, err := serve.OpenCAS(filepath.Join(dir, workerName(i)), 0, reg, nil)
		if err != nil {
			t.stop()
			return nil, err
		}
		sched := serve.NewScheduler(serve.Config{
			Workers: 1, JobParallel: 1, MaxCachedResults: maxCachedResults, QueueDepth: queueDepth,
			Metrics: reg, Store: cas,
		})
		srv := httptest.NewServer(serve.NewServer(sched, reg).Handler())
		t.workers = append(t.workers, &worker{reg: reg, sched: sched, srv: srv})
		nodes[workerName(i)] = srv.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{Nodes: nodes, Metrics: t.rreg})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = httptest.NewServer(rt.Handler())
	t.client = &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * numWorkers},
	}
	return t, nil
}

// stop closes the listeners, drains the schedulers and removes the CAS
// directories.
func (t *topology) stop() error {
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.router != nil {
		t.router.Close()
	}
	var first error
	for _, w := range t.workers {
		w.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		if err := w.sched.Drain(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	if err := os.RemoveAll(t.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// artifacts are the bytes of a served result that must never change for a
// request hash: across hits, workers, reps and the router.
type artifacts struct{ output, jsonl string }

// served is the outcome of one submission followed to its result.
type served struct {
	latencyMS float64 // submit sent → result received
	status    serve.JobStatus
	err       error
}

// conn is one closed-loop client: it sends its next request only after the
// previous one was answered.
type conn struct {
	b      *bench
	client *http.Client
	base   string // router or worker URL
	tag    string // request-id prefix for spans
	seq    int
}

// call makes one HTTP request and decodes a 2xx JSON body into out.
func (c *conn) call(parent int, name, req, method, path string, body []byte, out any) error {
	sp := c.b.tr.begin(parent, name, req)
	defer c.b.tr.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// submit posts one request and returns the admitted job's status.
func (c *conn) submit(parent int, req string, k servedKey) (serve.JobStatus, error) {
	body, err := json.Marshal(k.req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	var st serve.JobStatus
	err = c.call(parent, "serve.submit", req, http.MethodPost, "/v1/jobs", body, &st)
	if err == nil && st.RequestHash != k.hash {
		err = fmt.Errorf("submit: server hashed the request to %.12s, catalogue says %.12s", st.RequestHash, k.hash)
	}
	return st, err
}

// await polls the job until it is terminal, fetches its result and checks
// it: the job is done and its artifacts equal the first ones seen for the
// request hash.
func (c *conn) await(parent int, req string, k servedKey, id string) (serve.JobStatus, error) {
	deadline := time.Now().Add(jobTimeout)
	for {
		var st serve.JobStatus
		if err := c.call(parent, "serve.status", req, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
			return st, err
		}
		if st.Finished() {
			break
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, jobTimeout)
		}
		time.Sleep(pollInterval)
	}
	var res serve.JobResult
	if err := c.call(parent, "serve.result", req, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return res.JobStatus, err
	}
	if res.State != serve.StateDone {
		return res.JobStatus, fmt.Errorf("job %s ended %s: %s", id, res.State, res.Error)
	}
	return res.JobStatus, c.b.checkArtifacts(k.hash, artifacts{res.Output, res.JSONL})
}

// roundTrip is one complete submit→status→result exchange.
func (c *conn) roundTrip(parent int, k servedKey) served {
	c.seq++
	req := fmt.Sprintf("%s-%d", c.tag, c.seq)
	sp := c.b.tr.begin(parent, "serve.request", req)
	defer c.b.tr.end(sp)
	t0 := time.Now()
	st, err := c.submit(sp, req, k)
	if err == nil {
		st, err = c.await(sp, req, k, st.ID)
	}
	return served{latencyMS: float64(time.Since(t0).Nanoseconds()) / 1e6, status: st, err: err}
}

// checkArtifacts pins the first artifacts seen for hash and compares every
// later result against them byte for byte.
func (b *bench) checkArtifacts(hash string, got artifacts) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	want, ok := b.golden[hash]
	if !ok {
		if got.output == "" {
			return fmt.Errorf("result for %.12s has empty output", hash)
		}
		b.golden[hash] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("result for %.12s differs from the first result for that request", hash)
	}
	return nil
}

// coldPass is one client's share of the cold pass: a script that submits its
// whole batch, then collects. Every key is submitted once in seeded order
// (misses that queue behind each other on the single worker, so the worker
// never idles), the later half is submitted again at once (duplicates that
// coalesce onto executions still deep in the queue), everything is awaited in
// order, and the earlier half is submitted again (hits: on the memory cache
// for the keys among the worker's last maxCachedResults completions, on the
// disk CAS for the older ones). Each key is therefore submitted twice, and
// because completion order is submission order the counts depend on the
// schedule alone.
func (c *conn) coldPass(parent int, keys []servedKey) (misses, dups []served) {
	type pending struct {
		k   servedKey
		req string
		sp  int
		t0  time.Time
		st  serve.JobStatus
		err error
	}
	fire := func(k servedKey) pending {
		c.seq++
		p := pending{k: k, req: fmt.Sprintf("%s-%d", c.tag, c.seq), t0: time.Now()}
		p.sp = c.b.tr.begin(parent, "serve.request", p.req)
		p.st, p.err = c.submit(p.sp, p.req, k)
		return p
	}
	finish := func(p pending) served {
		if p.err == nil {
			p.st, p.err = c.await(p.sp, p.req, p.k, p.st.ID)
		}
		c.b.tr.end(p.sp)
		return served{latencyMS: float64(time.Since(p.t0).Nanoseconds()) / 1e6, status: p.st, err: p.err}
	}
	early := (len(keys) + 1) / 2
	var first, again []pending
	for _, k := range keys {
		first = append(first, fire(k))
	}
	for i := len(keys) - 1; i >= early; i-- {
		again = append(again, fire(keys[i]))
	}
	for _, p := range first {
		misses = append(misses, finish(p))
	}
	for _, p := range again {
		dups = append(dups, finish(p))
	}
	for _, k := range keys[:early] {
		dups = append(dups, c.roundTrip(parent, k))
	}
	return misses, dups
}

// warmSchedule draws n keys, Zipf-distributed over a seeded ranking of keys.
func warmSchedule(rng *rand.Rand, keys []servedKey, n int) []servedKey {
	if len(keys) == 0 {
		return nil
	}
	ranked := append([]servedKey(nil), keys...)
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(ranked)-1))
	out := make([]servedKey, n)
	for i := range out {
		out[i] = ranked[zipf.Uint64()]
	}
	return out
}

// serveRep is what one repetition of the serve phase measured.
type serveRep struct {
	setupS    float64   // startTopology wall
	coldWallS float64   // cold pass, first submit to last result
	coldDone  int       // cold submissions (misses and duplicates) answered correctly
	missMS    []float64 // latency of the first submission of each key
	warmMS    []float64 // routed warm round trips (+Inf for a failed one)
	directMS  []float64 // same schedule sent straight to the owning worker (traced runs)
	counts    map[string]float64
	submitHit float64 // µs, in-process Scheduler.Submit on a cached hash (traced runs)
	casGetUS  float64
	casPutUS  float64
	execShare float64
	queueWait []float64
}

// runServeRep stands up a fresh topology, runs the cold then the warm pass
// through the router with one client per worker's key set, and tears it
// down. Clients are partitioned by owner so each worker sees its requests
// in one deterministic order: the hit, CAS and eviction counts then depend
// on the seed alone, not on how two clients interleave.
func (b *bench) runServeRep(parent, rep int) (serveRep, error) {
	var r serveRep
	sp := b.tr.begin(parent, "serve.rep", fmt.Sprint(rep))
	defer b.tr.end(sp)

	keys, err := catalogue(b.def.Serve)
	if err != nil {
		return r, err
	}
	dir := filepath.Join(b.outDir, fmt.Sprintf("cas-%d-%d", os.Getpid(), rep))
	ssp := b.tr.begin(sp, "serve.setup", "")
	t0 := time.Now()
	topo, err := startTopology(dir)
	r.setupS = time.Since(t0).Seconds()
	b.tr.end(ssp)
	if err != nil {
		return r, err
	}
	defer func() {
		if err := topo.stop(); err != nil {
			b.op(fmt.Errorf("serve rep %d: teardown: %w", rep, err))
		}
	}()

	// One client per worker's key set, but never more clients than
	// min(2, nproc): on a one-core host a single client walks both sets.
	nClients := min(numWorkers, runtime.NumCPU())
	rng := rand.New(rand.NewSource(b.seed + int64(rep)*7919))
	owned := make([][]servedKey, nClients)
	for _, k := range keys {
		owned[k.owner%nClients] = append(owned[k.owner%nClients], k)
	}
	warm := make([][]servedKey, nClients)
	for i := range owned {
		rng.Shuffle(len(owned[i]), func(x, y int) { owned[i][x], owned[i][y] = owned[i][y], owned[i][x] })
	}
	for i := range owned {
		warm[i] = warmSchedule(rng, owned[i], b.def.Serve.WarmTrips/nClients)
	}

	clients := make([]*conn, nClients)
	for i := range clients {
		clients[i] = &conn{b: b, client: topo.client, base: topo.router.URL, tag: fmt.Sprintf("r%d.c%d", rep, i)}
	}
	each := func(f func(i int, c *conn)) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *conn) {
				defer wg.Done()
				f(i, c)
			}(i, c)
		}
		wg.Wait()
	}

	// Cold pass.
	b.sampleYard(&b.yardServe, 2)
	runtime.GC()
	csp := b.tr.begin(sp, "serve.cold_pass", "")
	missesBy := make([][]served, nClients)
	dupsBy := make([][]served, nClients)
	t0 = time.Now()
	each(func(i int, c *conn) { missesBy[i], dupsBy[i] = c.coldPass(csp, owned[i]) })
	r.coldWallS = time.Since(t0).Seconds()
	b.tr.end(csp)
	var execMS float64
	for i := range clients {
		for _, s := range missesBy[i] {
			b.op(s.err)
			r.missMS = append(r.missMS, latencyOrInf(s))
			if s.err == nil {
				r.coldDone++
				execMS += s.status.WallMS
				r.queueWait = append(r.queueWait, s.status.QueueWaitMS)
			}
		}
		for _, s := range dupsBy[i] {
			b.op(s.err)
			if s.err == nil {
				r.coldDone++
			}
		}
	}
	if r.coldWallS > 0 {
		r.execShare = execMS / 1e3 / (r.coldWallS * numWorkers)
	}

	// Warm pass, through the router.
	b.sampleYard(&b.yardServe, 2)
	runtime.GC()
	wsp := b.tr.begin(sp, "serve.warm_pass", "")
	warmBy := make([][]served, nClients)
	each(func(i int, c *conn) {
		for _, k := range warm[i] {
			warmBy[i] = append(warmBy[i], c.roundTrip(wsp, k))
		}
	})
	b.tr.end(wsp)
	for i := range clients {
		for _, s := range warmBy[i] {
			if s.err == nil && !s.status.CacheHit {
				s.err = fmt.Errorf("warm request for %.12s was not answered from a cache", s.status.RequestHash)
			}
			b.op(s.err)
			r.warmMS = append(r.warmMS, latencyOrInf(s))
		}
	}
	r.counts = topo.counts()
	b.sampleYard(&b.yardServe, 2)

	if b.tr == nil {
		return r, nil
	}

	// Traced runs only: the same warm schedule sent straight to the owning
	// worker (the base cluster.hop_p50_ms subtracts), then the in-process
	// micro-drivers that need a live scheduler and a recorded real Output.
	runtime.GC()
	dsp := b.tr.begin(sp, "serve.direct_pass", "")
	directBy := make([][]served, nClients)
	each(func(i int, c *conn) {
		d := *c
		d.tag += ".direct"
		for _, k := range warm[i] {
			d.base = topo.workers[k.owner].srv.URL
			directBy[i] = append(directBy[i], d.roundTrip(dsp, k))
		}
	})
	b.tr.end(dsp)
	for i := range clients {
		for _, s := range directBy[i] {
			b.op(s.err)
			r.directMS = append(r.directMS, latencyOrInf(s))
		}
	}
	r.submitHit, r.casGetUS, r.casPutUS, err = b.serveMicro(sp, topo, warm)
	b.op(err)
	return r, nil
}

func latencyOrInf(s served) float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return s.latencyMS
}

// counts reads the serve and cluster counters out of the registries, summed
// over workers.
func (t *topology) counts() map[string]float64 {
	snaps := make([]obs.Snapshot, len(t.workers))
	for i, w := range t.workers {
		snaps[i] = w.reg.Snapshot()
	}
	sum := func(name string) float64 {
		var n uint64
		for _, s := range snaps {
			n += s.SumCounters(name)
		}
		return float64(n)
	}
	rs := t.rreg.Snapshot()
	return map[string]float64{
		"serve.executed":         sum("serve_jobs_executed"),
		"serve.coalesced":        sum("serve_jobs_coalesced"),
		"serve.cache_hits":       sum("serve_cache_hits"),
		"serve.cas_hits":         sum("serve_cas_hits"),
		"serve.cas_puts":         sum("serve_cas_puts"),
		"serve.cas_evictions":    sum("serve_cas_evictions"),
		"cluster.federated_hits": float64(rs.SumCounters("cluster_federated_hits")),
		"cluster.steals":         float64(rs.SumCounters("cluster_steals")),
		"cluster.reroutes":       float64(rs.SumCounters("cluster_reroutes")),
	}
}

// serveMicro times the serve layer's hit path without HTTP: Scheduler.Submit
// on a hash the worker has cached, and CAS Get/Put on a scratch store with a
// real recorded Output. Each loop runs a fixed count and divides its own
// wall by it.
func (b *bench) serveMicro(parent int, topo *topology, warm [][]servedKey) (submitUS, getUS, putUS float64, err error) {
	sp := b.tr.begin(parent, "serve.micro", "")
	defer b.tr.end(sp)
	var k servedKey
	for _, ks := range warm {
		if len(ks) > 0 {
			k = ks[0]
			break
		}
	}
	sched := topo.workers[k.owner].sched
	if _, err := sched.Submit(k.req); err != nil { // resurrect from disk if the memory cache dropped it
		return 0, 0, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < b.sizes.submitHits; i++ {
		st, err := sched.Submit(k.req)
		if err != nil || !st.CacheHit {
			return 0, 0, 0, fmt.Errorf("in-process submit %d: hit=%v err=%v", i, st.CacheHit, err)
		}
	}
	submitUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(b.sizes.submitHits)

	out, ok := sched.CachedResult(k.hash)
	if !ok {
		return 0, 0, 0, fmt.Errorf("no cached result for %.12s to record", k.hash)
	}
	cas, err := serve.OpenCAS(filepath.Join(topo.dir, "scratch"), 0, nil, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	hashes := make([]string, b.sizes.casPuts)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%064x", i+1)
	}
	runtime.GC()
	t0 = time.Now()
	for _, h := range hashes {
		cas.Put(h, out)
	}
	putUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(hashes))
	if cas.Len() != len(hashes) {
		return 0, 0, 0, fmt.Errorf("cas holds %d entries after %d puts", cas.Len(), len(hashes))
	}
	runtime.GC()
	t0 = time.Now()
	for i := 0; i < b.sizes.casGets; i++ {
		got, ok := cas.Get(hashes[i%len(hashes)])
		if !ok || got.Text != out.Text {
			return 0, 0, 0, fmt.Errorf("cas get %d: ok=%v, bytes differ=%v", i, ok, got.Text != out.Text)
		}
	}
	getUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(b.sizes.casGets)
	return submitUS, getUS, putUS, nil
}

// serveEndToEnd folds the reps into the serve end-to-end metrics.
func serveEndToEnd(reps []serveRep, out map[string]sample) {
	var jobsPerS, warmP50 []float64
	for _, r := range reps {
		jobsPerS = append(jobsPerS, float64(r.coldDone)/r.coldWallS)
		warmP50 = append(warmP50, median(r.warmMS))
	}
	out["serve_cold_jobs_per_s"] = summarize(jobsPerS)
	out["serve_warm_p50_ms"] = summarize(warmP50)
}
