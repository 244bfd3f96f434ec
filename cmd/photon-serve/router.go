package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"photon/internal/buildinfo"
	"photon/internal/cluster"
	"photon/internal/obs"
)

// routerOptions carries the -router flag set into runRouter.
type routerOptions struct {
	addr       string
	nodes      string
	replicas   int
	probeEvery time.Duration
	log        *obs.Logger
	stderr     *os.File
}

// parseNodes turns the -nodes flag into the router's membership map. Each
// comma-separated entry is either a bare URL (named node0, node1, … by
// position) or an explicit name=URL pair; the two forms can mix, but names
// must be unique.
func parseNodes(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rawURL := fmt.Sprintf("node%d", i), entry
		if k, v, ok := strings.Cut(entry, "="); ok && !strings.Contains(k, "/") {
			name, rawURL = k, v
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate node name %q", name)
		}
		out[name] = rawURL
	}
	if len(out) == 0 {
		return nil, errors.New("-router needs -nodes with at least one worker URL")
	}
	return out, nil
}

// runRouter is the -router main loop: build the cluster router over the
// given workers, serve its handler, and shut down cleanly on SIGTERM/SIGINT.
// The router holds no job state at all — workers finish their jobs
// regardless, and their ids stay answerable by the next router — so shutdown
// is just closing the listener gracefully.
func runRouter(opts routerOptions) int {
	members, err := parseNodes(opts.nodes)
	if err != nil {
		fmt.Fprintf(opts.stderr, "photon-serve: %v\n", err)
		return 2
	}
	reg := obs.NewRegistry()
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:         members,
		Replicas:      opts.replicas,
		ProbeInterval: opts.probeEvery,
		Metrics:       reg,
		Log:           opts.log,
	})
	if err != nil {
		fmt.Fprintf(opts.stderr, "photon-serve: %v\n", err)
		return 1
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	rt.Start(probeCtx)

	srv := &http.Server{Addr: opts.addr, Handler: rt.Handler()}
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		fmt.Fprintf(opts.stderr, "photon-serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(opts.stderr, "photon-serve: %s\n", buildinfo.Get())
	fmt.Fprintf(opts.stderr, "photon-serve: router listening on %s (%d nodes, probe %s)\n",
		ln.Addr(), len(members), opts.probeEvery)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(opts.stderr, "photon-serve: router: %v: shutting down\n", sig)
	case err := <-errCh:
		fmt.Fprintf(opts.stderr, "photon-serve: router: serve: %v\n", err)
		return 1
	}
	stopProbes()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(opts.stderr, "photon-serve: router: shutdown: %v\n", err)
	}
	<-errCh
	fmt.Fprintln(opts.stderr, "photon-serve: router: bye")
	return 0
}
