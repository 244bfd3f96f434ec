// Command photon-ctl is the client for photon-serve.
//
//	photon-ctl -server http://localhost:8080 submit -exp fig13 -quick -wait
//	photon-ctl submit -bench mm -modes photon,pka
//	photon-ctl status 3f9a1c0be2d4-1
//	photon-ctl result 3f9a1c0be2d4-1          # prints the text artifact
//	photon-ctl result -json 3f9a1c0be2d4-1    # prints the full JSON result
//	photon-ctl watch 3f9a1c0be2d4-1           # streams SSE progress events
//	photon-ctl logs 3f9a1c0be2d4-1            # tails the job's structured log events
//	photon-ctl accuracy 3f9a1c0be2d4-1        # prints the job's sampling-accuracy ledger
//	photon-ctl flight                         # dumps the daemon's flight recorder
//	photon-ctl cancel 3f9a1c0be2d4-1
//	photon-ctl list | health | metrics
//
// A job id is <first 12 hex digits of the request hash>-<sequence number>.
//
// Exit codes: 0 success, 1 job failed or request error, 2 usage error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"photon/internal/buildinfo"
	"photon/internal/harness"
	"photon/internal/serve"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage: photon-ctl [-server URL] <command> [flags]

commands:
  submit   submit a job (-exp | -bench; -wait polls to completion)
  status   print a job's status
  result   print a job's result artifact (-json for the full record)
  events   alias of watch
  watch    stream a job's SSE progress events
  logs     tail a job's structured log events (replay + live; -json raw)
  accuracy print a job's sampling-accuracy ledger (-summary for a table)
  flight   dump the daemon's flight recorder (-json raw)
  cancel   cancel a job
  list     list jobs
  health   print /healthz
  metrics  print /metrics`)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("photon-ctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", envOr("PHOTON_SERVER", "http://localhost:8080"), "photon-serve base URL (or $PHOTON_SERVER)")
	version := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() { usage(stderr); fs.PrintDefaults() }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Print("photon-ctl"))
		return 0
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(stderr)
		return 2
	}
	c := &client{base: strings.TrimRight(*server, "/"), http: &http.Client{}, stdout: stdout, stderr: stderr}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return c.submit(rest)
	case "status":
		return c.status(rest)
	case "result":
		return c.result(rest)
	case "watch", "events":
		return c.watch(rest)
	case "logs":
		return c.logs(rest)
	case "accuracy":
		return c.accuracy(rest)
	case "flight":
		return c.flight(rest)
	case "cancel":
		return c.cancel(rest)
	case "list":
		return c.get("/v1/jobs")
	case "health":
		return c.get("/healthz")
	case "metrics":
		return c.get("/metrics")
	default:
		fmt.Fprintf(stderr, "photon-ctl: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

type client struct {
	base   string
	http   *http.Client
	stdout io.Writer
	stderr io.Writer
}

func (c *client) fail(err error) int {
	fmt.Fprintf(c.stderr, "photon-ctl: %v\n", err)
	return 1
}

// doJSON issues one request and decodes the JSON response into out (when
// non-nil). Non-2xx responses become errors carrying the server's message.
func (c *client) doJSON(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				return fmt.Errorf("%s (HTTP %d, retry after %ss)", eb.Error, resp.StatusCode, ra)
			}
			return fmt.Errorf("%s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// get fetches path and pretty-prints the raw JSON body.
func (c *client) get(path string) int {
	var raw json.RawMessage
	if err := c.doJSON(http.MethodGet, path, nil, &raw); err != nil {
		return c.fail(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		fmt.Fprintln(c.stdout, string(raw))
		return 0
	}
	fmt.Fprintln(c.stdout, buf.String())
	return 0
}

func (c *client) submit(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	var (
		exp       = fs.String("exp", "", "experiment name (fig13, extensions, ...)")
		bench     = fs.String("bench", "", "benchmark for a single-cell job: "+strings.Join(harness.WorkloadNames(), "|"))
		size      = fs.Int("size", 0, "problem size (0: the benchmark's default)")
		arch      = fs.String("arch", "", "gpu config: r9nano (default) or mi100")
		modes     = fs.String("modes", "", "comma-separated runner modes ("+strings.Join(harness.ModeNames(), ",")+"; the full baseline row is always included)")
		quick     = fs.Bool("quick", false, "quick mode (smallest sizes) for experiment jobs")
		fixedWall = fs.Bool("fixed-wall", false, "pin wall times for byte-identical output")
		prNodes   = fs.Int("pr-nodes", 0, "PageRank node count for experiment jobs")
		parallel  = fs.Int("parallel", 0, "engine workers for this job (hint, not hashed)")
		timeoutMS = fs.Int("timeout-ms", 0, "per-job deadline in ms (hint, not hashed)")
		wait      = fs.Bool("wait", false, "poll until the job finishes and print its result")
		poll      = fs.Duration("poll", 250*time.Millisecond, "poll interval used with -wait")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	req := serve.JobRequest{
		Experiment: *exp,
		Bench:      *bench,
		Size:       *size,
		Arch:       *arch,
		Quick:      *quick,
		FixedWall:  *fixedWall,
		PRNodes:    *prNodes,
		Parallel:   *parallel,
		TimeoutMS:  *timeoutMS,
	}
	if *modes != "" {
		for _, m := range strings.Split(*modes, ",") {
			if m = strings.TrimSpace(m); m != "" {
				req.Modes = append(req.Modes, m)
			}
		}
	}
	var st serve.JobStatus
	if err := c.doJSON(http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stderr, "photon-ctl: job %s %s (cache_hit=%v coalesced=%v)\n",
		st.ID, st.State, st.CacheHit, st.Coalesced)
	if !*wait {
		fmt.Fprintln(c.stdout, st.ID)
		return 0
	}
	for !st.Finished() {
		time.Sleep(*poll)
		if err := c.doJSON(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
			return c.fail(err)
		}
	}
	return c.printResult(st.ID, false)
}

func jobID(fs *flag.FlagSet, stderr io.Writer) (string, bool) {
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "photon-ctl: %s takes exactly one job id\n", fs.Name())
		return "", false
	}
	return fs.Arg(0), true
}

func (c *client) status(args []string) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobID(fs, c.stderr)
	if !ok {
		return 2
	}
	return c.get("/v1/jobs/" + id)
}

func (c *client) result(args []string) int {
	fs := flag.NewFlagSet("result", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	asJSON := fs.Bool("json", false, "print the full JSON result instead of the text artifact")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobID(fs, c.stderr)
	if !ok {
		return 2
	}
	return c.printResult(id, *asJSON)
}

// printResult fetches a terminal result. The text artifact goes to stdout
// verbatim (so `photon-ctl result` diffs against photon-bench output); a
// failed or cancelled job prints its error and exits non-zero.
func (c *client) printResult(id string, asJSON bool) int {
	var res serve.JobResult
	if err := c.doJSON(http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return c.fail(err)
	}
	if asJSON {
		b, _ := json.MarshalIndent(res, "", "  ")
		fmt.Fprintln(c.stdout, string(b))
	} else {
		fmt.Fprint(c.stdout, res.Output)
	}
	if res.State != serve.StateDone {
		fmt.Fprintf(c.stderr, "photon-ctl: job %s %s: %s\n", res.ID, res.State, res.Error)
		return 1
	}
	return 0
}

func (c *client) cancel(args []string) int {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobID(fs, c.stderr)
	if !ok {
		return 2
	}
	var st serve.JobStatus
	if err := c.doJSON(http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stdout, "job %s %s\n", st.ID, st.State)
	return 0
}

// watch streams the job's SSE events, one JSON line per event, until the
// job finishes. A dropped connection (a proxy going away mid-stream)
// reconnects with Last-Event-ID, so the stream resumes where it left off
// instead of replaying — no duplicate lines.
func (c *client) watch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobID(fs, c.stderr)
	if !ok {
		return 2
	}
	if err := c.streamEvents(id, func(data string, _ serve.Event) {
		fmt.Fprintln(c.stdout, data)
	}); err != nil {
		return c.fail(err)
	}
	return 0
}

// streamEvents consumes a job's SSE stream, invoking onEvent for every data
// payload, until the terminal "result" event arrives. It tracks the SSE id:
// field and, when the connection drops early, reconnects with Last-Event-ID
// so the server replays only what was missed. Progress resets the retry
// budget: only consecutive failures give up.
func (c *client) streamEvents(id string, onEvent func(data string, ev serve.Event)) error {
	const maxRetries = 5
	var lastID string
	retries := 0
	for {
		req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if retries++; retries > maxRetries {
				return err
			}
			time.Sleep(time.Duration(retries) * 200 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
		terminal := false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				lastID = v
				retries = 0
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev serve.Event
			_ = json.Unmarshal([]byte(data), &ev)
			onEvent(data, ev)
			if ev.Type == "result" {
				terminal = true
			}
		}
		scanErr := sc.Err()
		resp.Body.Close()
		if terminal {
			return nil
		}
		// The stream ended without the terminal event: the connection
		// dropped (or an intermediary closed it). Resume from lastID.
		if retries++; retries > maxRetries {
			if scanErr != nil {
				return scanErr
			}
			return fmt.Errorf("event stream for %s ended before the job finished", id)
		}
		fmt.Fprintf(c.stderr, "photon-ctl: event stream dropped, resuming after id %s\n", lastID)
		time.Sleep(time.Duration(retries) * 200 * time.Millisecond)
	}
}

// logs tails the job's structured log events over the same SSE stream watch
// uses (reconnect-with-resume included), filtered to type "log": the replay
// delivers everything the job logged so far, then live records follow until
// the job finishes. -json passes the raw event JSON through; the default
// renders one line per record (LEVEL message key=value ...).
func (c *client) logs(args []string) int {
	fs := flag.NewFlagSet("logs", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	asJSON := fs.Bool("json", false, "print raw event JSON instead of formatted lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobID(fs, c.stderr)
	if !ok {
		return 2
	}
	err := c.streamEvents(id, func(data string, ev serve.Event) {
		if ev.Type != "log" {
			return
		}
		if *asJSON {
			fmt.Fprintln(c.stdout, data)
			return
		}
		line := ev.Level + " " + ev.Msg
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + ev.Fields[k]
		}
		fmt.Fprintln(c.stdout, line)
	})
	if err != nil {
		return c.fail(err)
	}
	return 0
}

// accuracy prints the job's per-kernel sampling-accuracy ledger: the raw
// JSON lines by default (pipe into jq or photon-report), or a per-run
// roll-up table with -summary.
func (c *client) accuracy(args []string) int {
	fs := flag.NewFlagSet("accuracy", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	summary := fs.Bool("summary", false, "print a per-(bench, runner) summary table instead of raw JSONL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobID(fs, c.stderr)
	if !ok {
		return 2
	}
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/accuracy")
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return c.fail(err)
	}
	switch {
	case resp.StatusCode == http.StatusNoContent:
		fmt.Fprintf(c.stderr, "photon-ctl: job %s has no accuracy ledger (nothing was sampled)\n", id)
		return 0
	case resp.StatusCode >= 300:
		return c.fail(fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data))))
	}
	if !*summary {
		fmt.Fprint(c.stdout, string(data))
		return 0
	}
	recs, err := harness.ReadJSONLines[harness.AccuracyRecord](bytes.NewReader(data))
	if err != nil {
		return c.fail(err)
	}
	harness.PrintAccuracySummaries(c.stdout, harness.SummarizeAccuracy(recs))
	return 0
}

// flight dumps the daemon's flight recorder: the terminal text rendering by
// default, the raw JSON dump with -json.
func (c *client) flight(args []string) int {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	asJSON := fs.Bool("json", false, "print the raw JSON dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(c.stderr, "photon-ctl: flight takes no arguments")
		return 2
	}
	path := "/debug/flight?format=text"
	if *asJSON {
		path = "/debug/flight"
	}
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return c.fail(err)
	}
	if resp.StatusCode >= 300 {
		return c.fail(fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data))))
	}
	fmt.Fprint(c.stdout, string(data))
	return 0
}
