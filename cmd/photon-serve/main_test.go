package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort grabs an ephemeral port for the daemon under test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestSIGQUITFlightDump boots the real daemon in-process, runs one stub-free
// (but trivial) interaction, sends the process SIGQUIT, and asserts the
// flight recorder dump landed on stderr while the daemon kept serving; then
// SIGTERM drains it to exit 0.
func TestSIGQUITFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("signal round-trip with a live HTTP daemon")
	}
	addr := freePort(t)
	stderrPath := filepath.Join(t.TempDir(), "stderr")
	ef, err := os.Create(stderrPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()

	exitCh := make(chan int, 1)
	go func() {
		exitCh <- realMain([]string{"-addr", addr, "-flight-cap", "64"}, os.Stdout, ef)
	}()

	base := "http://" + addr
	waitHealthy(t, base)

	// Seed the ring: an invalid submission is enough for a rejected-or-
	// admitted scheduler event; use a real tiny cell but cancel immediately
	// so the test stays fast.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"sc","fixed_wall":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.ID == "" {
		t.Fatal("submit failed")
	}
	waitDone(t, base, st.ID)

	// SIGQUIT → flight dump on stderr, daemon stays up.
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		b, _ := os.ReadFile(stderrPath)
		return strings.Contains(string(b), "dumping flight recorder") &&
			strings.Contains(string(b), "flight recorder:")
	}, "flight dump on stderr")
	if _, err := http.Get(base + "/healthz"); err != nil {
		t.Fatalf("daemon died after SIGQUIT: %v", err)
	}

	// The same dump is served over HTTP.
	r, err := http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total  uint64           `json:"total"`
		Events []map[string]any `json:"events"`
	}
	if err := json.NewDecoder(r.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/flight: %v", err)
	}
	r.Body.Close()
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Errorf("flight dump empty: %+v", dump)
	}

	// SIGTERM → graceful drain → exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitCh:
		if code != 0 {
			b, _ := os.ReadFile(stderrPath)
			t.Fatalf("exit code %d; stderr:\n%s", code, b)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	b, _ := os.ReadFile(stderrPath)
	if !strings.Contains(string(b), "drained, bye") {
		t.Errorf("stderr missing drain farewell:\n%s", b)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		r, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		r.Body.Close()
		return r.StatusCode == http.StatusOK
	}, "daemon healthy")
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	waitFor(t, 60*time.Second, func() bool {
		r, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		json.NewDecoder(r.Body).Decode(&st)
		return st.State == "done" || st.State == "failed" || st.State == "cancelled"
	}, fmt.Sprintf("job %s terminal", id))
}

func waitFor(t *testing.T, limit time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestUnknownEnumFlagValues: an unknown value of an enum flag is a usage
// error (exit 2) naming the accepted values, not a silent default. The
// unopenable -cas-dir makes a daemon that accepted the value exit 1 instead
// of serving.
func TestUnknownEnumFlagValues(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-log-format", "yaml", "(want text or json)"},
		{"-log-level", "verbose", "(want debug, info, warn or error)"},
	} {
		ef, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		args := []string{"-addr", freePort(t), "-cas-dir", filepath.Join(notDir, "cas"), tc.flag, tc.value}
		code := realMain(args, os.Stdout, ef)
		ef.Close()
		stderr, _ := os.ReadFile(ef.Name())
		if code != 2 || !strings.Contains(string(stderr), tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2 naming %s", tc.flag, tc.value, code, stderr, tc.want)
		}
	}
}
