// Command photon-serve is the photon simulation service: a stdlib-only HTTP
// daemon that accepts simulation and experiment jobs, runs them on a bounded
// worker pool over the harness job-graph engine, and answers repeated
// submissions from a content-addressed result cache.
//
//	photon-serve -addr :8080 -workers 2 -queue-depth 16
//
// API (see internal/serve):
//
//	POST   /v1/jobs               submit (202; 200 on cache hit; 429 when full)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	GET    /v1/jobs/{id}/result   terminal artifacts
//	GET    /v1/jobs/{id}/accuracy per-kernel sampling-accuracy ledger (JSONL)
//	GET    /v1/jobs/{id}/events   SSE progress + log stream
//	DELETE /v1/jobs/{id}          cancel one submission
//	GET    /healthz /readyz /metrics /debug/flight
//
// /metrics answers JSON by default and Prometheus text exposition when the
// Accept header asks for it. Structured logs go to stderr (-log-level,
// -log-format); the flight recorder (-flight-cap) keeps the last N
// scheduler/tier/job events, dumpable via /debug/flight or SIGQUIT.
//
// SIGTERM/SIGINT starts a graceful drain: admission stops (readyz turns
// 503), queued and running jobs finish (bounded by -drain-timeout), then
// the process exits 0. SIGQUIT dumps the flight ring to stderr and keeps
// serving.
//
// Completed results live in one content-addressed store (capped by
// -cas-max-bytes, LRU-evicted), which answers every resubmission. By default
// it is held in memory; with -cas-dir it is a directory of files, so a
// restarted daemon answers previously-completed jobs without re-executing
// them.
//
// With -router, the process serves the same API as a cluster router over N
// workers instead of executing jobs itself:
//
//	photon-serve -router -nodes http://host1:8080,http://host2:8080
//
// Jobs are consistent-hashed across workers by their canonical request
// hash, so a repeat lands on the worker whose store holds the result; the
// router fails over along the ring's preference order when a worker dies
// (health from /readyz polls every -probe-interval). It keeps no per-job
// state — a job id it hands out is <node>.<worker job id> — so a restarted
// router, or a second one over the same -nodes, answers for any id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/serve"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("photon-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 1, "concurrent job executions")
		queueDepth   = fs.Int("queue-depth", 16, "pending jobs admitted beyond the running ones")
		jobParallel  = fs.Int("job-parallel", 0, "default engine workers per job (<= 0: one per CPU)")
		timeout      = fs.Duration("default-timeout", 0, "default per-job deadline, queue wait included (0: none)")
		retryAfter   = fs.Duration("retry-after", 2*time.Second, "backoff hint attached to 429 responses")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs")
		casDir       = fs.String("cas-dir", "", "result store directory: completed results survive restarts (empty: memory only)")
		casMaxBytes  = fs.Int64("cas-max-bytes", 0, "result store size cap in bytes (<= 0: 1 GiB)")
		router       = fs.Bool("router", false, "run as a cluster router over -nodes instead of executing jobs")
		nodes        = fs.String("nodes", "", "router mode: comma-separated worker URLs (or name=URL pairs)")
		routeRep     = fs.Int("route-replicas", 0, "router mode: virtual nodes per worker on the hash ring (<= 0: 64)")
		probeEvery   = fs.Duration("probe-interval", time.Second, "router mode: /readyz health-poll period")
		logLevel     = fs.String("log-level", "info", "minimum stderr log level (debug, info, warn, error)")
		logFormat    = fs.String("log-format", "text", "stderr log encoding (text or json)")
		flightCap    = fs.Int("flight-cap", 1024, "flight recorder ring capacity (0: disabled)")
		version      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Print("photon-serve"))
		return 0
	}

	level := obs.ParseLevel(*logLevel)
	var log *obs.Logger
	if *logFormat == "json" {
		log = obs.NewJSONLogger(stderr, level)
	} else {
		log = obs.NewTextLogger(stderr, level)
	}
	var flight *obs.FlightRecorder
	if *flightCap > 0 {
		flight = obs.NewFlightRecorder(*flightCap)
	}

	if *router {
		return runRouter(routerOptions{
			addr:       *addr,
			nodes:      *nodes,
			replicas:   *routeRep,
			probeEvery: *probeEvery,
			log:        log,
			stderr:     stderr,
		})
	}
	if *nodes != "" {
		fmt.Fprintln(stderr, "photon-serve: -nodes only applies with -router")
		return 2
	}

	reg := obs.NewRegistry()
	var store *serve.CAS
	if *casDir == "" {
		store = serve.NewMemoryCAS(*casMaxBytes, reg, log)
	} else {
		var err error
		store, err = serve.OpenCAS(*casDir, *casMaxBytes, reg, log)
		if err != nil {
			fmt.Fprintf(stderr, "photon-serve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "photon-serve: disk CAS at %s (%d entries, %d bytes)\n",
			*casDir, store.Len(), store.Bytes())
	}
	sched := serve.NewScheduler(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		JobParallel:    *jobParallel,
		DefaultTimeout: *timeout,
		RetryAfter:     *retryAfter,
		Metrics:        reg,
		Log:            log,
		Flight:         flight,
		Baselines:      harness.NewBaselineCache(),
		Store:          store,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: serve.NewServer(sched, reg).Handler(),
	}

	// Bind before announcing readiness so a supervisor that starts probing
	// right after exec never sees a connection refused from a live process.
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		fmt.Fprintf(stderr, "photon-serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "photon-serve: %s\n", buildinfo.Get())
	fmt.Fprintf(stderr, "photon-serve: listening on %s (workers=%d queue=%d)\n",
		ln.Addr(), *workers, *queueDepth)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	// SIGQUIT becomes a diagnostic poke rather than a crash: dump the flight
	// ring (the last N scheduler/tier/job events) to stderr and keep serving.
	quitCh := make(chan os.Signal, 1)
	if flight != nil {
		signal.Notify(quitCh, syscall.SIGQUIT)
	}

loop:
	for {
		select {
		case <-quitCh:
			fmt.Fprintln(stderr, "photon-serve: SIGQUIT: dumping flight recorder")
			if err := flight.WriteText(stderr); err != nil {
				fmt.Fprintf(stderr, "photon-serve: flight dump: %v\n", err)
			}
		case sig := <-sigCh:
			fmt.Fprintf(stderr, "photon-serve: %v: draining (timeout %s)\n", sig, *drainTimeout)
			break loop
		case err := <-errCh:
			fmt.Fprintf(stderr, "photon-serve: serve: %v\n", err)
			return 1
		}
	}

	// Graceful drain: stop admitting (readyz goes 503 via sched.Draining),
	// let queued and in-flight jobs finish, then close the listener. Jobs
	// still running at the deadline are hard-cancelled through their
	// contexts; that is a clean shutdown too, just a less patient one.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := sched.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "photon-serve: drain: %v (in-flight jobs cancelled)\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "photon-serve: shutdown: %v\n", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stderr, "photon-serve: drained, bye")
	return 0
}
