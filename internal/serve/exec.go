package serve

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"photon/internal/harness"
	"photon/internal/obs"
	"photon/internal/sim/gpu"
)

// hubLogHandler adapts slog records into a job's SSE stream as
// Event{Type: "log"} messages. It runs as one sink of a Fanout next to the
// daemon's own handlers (stderr, flight ring), with its own level threshold,
// so a client tailing `photon-ctl logs <job>` can see Debug records while the
// daemon's stderr stays at Info.
type hubLogHandler struct {
	level   slog.Level
	publish func(Event)
	attrs   []slog.Attr
}

func (h hubLogHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= h.level }

func (h hubLogHandler) Handle(_ context.Context, r slog.Record) error {
	ev := Event{Type: "log", Level: r.Level.String(), Msg: r.Message}
	fields := make(map[string]string, r.NumAttrs()+len(h.attrs))
	for _, a := range h.attrs {
		fields[a.Key] = a.Value.String()
	}
	r.Attrs(func(a slog.Attr) bool {
		fields[a.Key] = a.Value.String()
		return true
	})
	if len(fields) > 0 {
		ev.Fields = fields
	}
	h.publish(ev)
	return nil
}

func (h hubLogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	h.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return h
}

func (h hubLogHandler) WithGroup(string) slog.Handler { return h }

// jobLogger builds the execution-scoped logger: the daemon's base handler
// (the operator's stderr level, plus the flight ring) fanned out with the
// job's SSE hub at Debug, every record tagged with the job's short hash. The
// logger is rate-limited so a full-detailed run's per-kernel records cannot
// flood slow SSE consumers.
func jobLogger(h Hooks) *obs.Logger {
	var hub slog.Handler
	if h.Progress != nil {
		hub = hubLogHandler{level: slog.LevelDebug, publish: h.Progress}
	}
	lg := obs.NewLogger(obs.Fanout(h.Log.Handler(), hub))
	if h.Job != "" {
		lg = lg.With(slog.String("job", h.Job))
	}
	return lg.WithRateLimit(hubLogBudget, time.Second)
}

// hubLogBudget caps job-scoped log records per second: plenty for tier
// decisions and engine summaries, a backstop against per-wavefront floods.
const hubLogBudget = 512

// HarnessExecutor returns the production executor: it bridges canonical
// requests onto internal/harness, running either a registered experiment or
// a one-point SimSweep. Each execution gets a private TraceBuffer whose
// events feed the job's progress stream, a job-scoped structured logger
// teeing into the same stream, and a private accuracy ledger returned in
// Output.Accuracy; the shared baseline cache, metrics registry and daemon
// logger (flight ring included) flow in through Hooks. The text artifact
// reproduces photon-bench stdout byte-for-byte (header, rows, and the blank
// line photon-bench prints after each experiment), so a served result diffs
// clean against the CLI's.
func HarnessExecutor() Executor {
	return func(ctx context.Context, req JobRequest, h Hooks) (Output, error) {
		o := harness.DefaultOptions()
		o.Quick = req.Quick
		o.FixedWall = req.FixedWall
		if req.PRNodes > 0 {
			o.PRNodes = req.PRNodes
		}
		o.Parallel = h.Parallel
		o.Baselines = h.Baselines
		if o.Baselines == nil {
			o.Baselines = harness.NewBaselineCache()
		}
		o.Metrics = h.Metrics
		o.Context = ctx
		o.Log = jobLogger(h)

		// Per-execution trace: spans double as live progress events. The
		// buffer itself is discarded with the execution — the service keeps
		// results, not traces.
		tr := obs.NewTraceBuffer()
		if h.Progress != nil {
			progress := h.Progress
			tr.OnEvent(func(ev obs.TraceEvent) {
				if ev.Ph != "X" {
					return
				}
				progress(Event{Type: "span", Name: ev.Name, Cat: ev.Cat, DurMS: ev.Dur / 1000})
			})
		}
		o.Trace = tr

		var text, jsonl, accuracy strings.Builder
		o.JSON = harness.NewJSONSink(&jsonl)
		o.Accuracy = harness.NewAccuracySink(&accuracy)
		out := func() Output {
			return Output{Text: text.String(), JSONL: jsonl.String(), Accuracy: accuracy.String()}
		}

		if req.Experiment != "" {
			e, ok := harness.FindExperiment(req.Experiment)
			if !ok {
				return Output{}, fmt.Errorf("unknown experiment %q", req.Experiment)
			}
			if err := e.Run(&text, o); err != nil {
				return out(), err
			}
			// photon-bench prints a blank line after each experiment; match
			// it so Output diffs clean against `photon-bench -exp <name>`.
			text.WriteString("\n")
			o.Accuracy.PublishGauges(o.Metrics)
			return out(), nil
		}

		cfg, ok := gpu.Configs(req.Arch)
		if !ok {
			return Output{}, fmt.Errorf("unknown arch %q", req.Arch)
		}
		sweep, err := harness.SimSweep(cfg, req.Bench, req.Size, req.Modes, o.Params)
		if err != nil {
			return Output{}, err
		}
		harness.PrintHeader(&text)
		if err := o.RunSweep(&text, sweep); err != nil {
			return out(), err
		}
		o.Accuracy.PublishGauges(o.Metrics)
		return out(), nil
	}
}
