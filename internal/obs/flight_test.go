package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(16)
	if f.Cap() != 16 {
		t.Fatalf("Cap() = %d, want 16", f.Cap())
	}
	for i := 0; i < 40; i++ {
		f.RecordEvent(FlightEvent{Kind: "test", Value: float64(i)})
	}
	if got := f.Total(); got != 40 {
		t.Fatalf("Total() = %d, want 40", got)
	}
	evs := f.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("Snapshot() returned %d events, want 16 (ring cap)", len(evs))
	}
	// Oldest-first: the surviving window is events 24..39 (seq 25..40).
	for i, ev := range evs {
		wantSeq := uint64(25 + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Value != float64(24+i) {
			t.Errorf("event %d: Value = %g, want %d", i, ev.Value, 24+i)
		}
		if ev.TS == 0 {
			t.Errorf("event %d: TS not stamped", i)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(64)
	f.RecordEvent(FlightEvent{Kind: "a", Msg: "first"})
	f.RecordEvent(FlightEvent{Kind: "b", Msg: "second"})
	evs := f.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("Snapshot() returned %d events, want 2", len(evs))
	}
	if evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("events out of order: %+v", evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("bad sequence numbers: %+v", evs)
	}
}

func TestFlightRecorderMinimumCapacity(t *testing.T) {
	if got := NewFlightRecorder(1).Cap(); got != 16 {
		t.Fatalf("Cap() = %d, want floor of 16", got)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.RecordEvent(FlightEvent{Kind: "k", Msg: "dropped"})
	f.RecordEvent(FlightEvent{Kind: "k"})
	if f.Snapshot() != nil || f.Total() != 0 || f.Cap() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// TestFlightRecorderConcurrentWriters hammers one ring from many
// goroutines; run under -race this doubles as the data-race check, and the
// sequence invariants below catch lost updates.
func TestFlightRecorderConcurrentWriters(t *testing.T) {
	f := NewFlightRecorder(128)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.RecordEvent(FlightEvent{Kind: "race", Value: float64(w)})
			}
		}(w)
	}
	wg.Wait()
	if got := f.Total(); got != writers*perWriter {
		t.Fatalf("Total() = %d, want %d", got, writers*perWriter)
	}
	evs := f.Snapshot()
	if len(evs) != 128 {
		t.Fatalf("Snapshot() = %d events, want 128", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != writers*perWriter {
		t.Fatalf("last Seq = %d, want %d", evs[len(evs)-1].Seq, writers*perWriter)
	}
}

func TestFlightDumpJSON(t *testing.T) {
	f := NewFlightRecorder(16)
	f.RecordEvent(FlightEvent{Kind: "sched", Msg: "admit", Job: strings.Repeat("ab", 32), Value: 3})
	f.RecordEvent(FlightEvent{Kind: "tier", Tier: "bb-sampling", Msg: "kernel done"})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Cap != 16 || d.Total != 2 || len(d.Events) != 2 {
		t.Fatalf("dump = cap %d total %d events %d, want 16/2/2", d.Cap, d.Total, len(d.Events))
	}
	if d.Events[1].Tier != "bb-sampling" {
		t.Fatalf("tier lost in round-trip: %+v", d.Events[1])
	}
}

func TestFlightDumpText(t *testing.T) {
	f := NewFlightRecorder(16)
	for i := 0; i < 3; i++ {
		f.RecordEvent(FlightEvent{Kind: "job", Msg: fmt.Sprintf("state %d", i), Job: "deadbeefdeadbeefdead"})
	}
	var buf bytes.Buffer
	if err := f.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 events total") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, "job=deadbeefdead") {
		t.Fatalf("job hash not abbreviated as expected: %s", out)
	}
	if strings.Count(out, "\n") != 4 { // header + 3 events
		t.Fatalf("want 4 lines, got: %s", out)
	}
}

// TestFlightHandlerIsALogSink: the ring composed under Fanout next to a
// stderr-style sink sees the same records, keeps exactly those that carry a
// kind — at any level, whatever the other sink's threshold — and copies the
// record's time and message plus the kind/job/tier/value attrs, including
// the ones a Logger.With scope binds.
func TestFlightHandlerIsALogSink(t *testing.T) {
	f := NewFlightRecorder(16)
	var text bytes.Buffer
	l := NewLogger(Fanout(
		slog.NewTextHandler(&text, &slog.HandlerOptions{Level: slog.LevelInfo}),
		f.Handler(),
	))
	if !l.Enabled(slog.LevelDebug) {
		t.Fatal("an attached ring must enable Debug: tier decisions are Debug records")
	}
	l.Info("no kind: log only", slog.String("job", "cafe"))
	job := l.With(slog.String("job", "cafef00dcafef00d"))
	job.Debug("tier decision: conv1", Kind("tier"), slog.String("tier", "bb-sampling"),
		slog.Int("value", 3), slog.String("kernel", "conv1"))
	job.Warn("engine job failed", Kind("job"), slog.Int("value", 2), slog.Int("job", 9))
	l.Info("done", Kind("sched"), slog.String("job", "beef"), slog.Float64("value", 1.5))

	evs := f.Snapshot()
	want := []FlightEvent{
		{Kind: "tier", Msg: "tier decision: conv1", Job: "cafef00dcafef00d", Tier: "bb-sampling", Value: 3},
		{Kind: "job", Msg: "engine job failed", Job: "cafef00dcafef00d", Value: 2},
		{Kind: "sched", Msg: "done", Job: "beef", Value: 1.5},
	}
	if len(evs) != len(want) {
		t.Fatalf("ring kept %d records, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.TS == 0 || ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq/ts not stamped: %+v", i, ev)
		}
		ev.Seq, ev.TS = 0, 0
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	// One wording, two sinks: every Info+ ring message is in the text sink
	// too, and the Debug one is not (the sinks keep their own thresholds).
	for _, msg := range []string{"no kind: log only", "engine job failed", "msg=done"} {
		if !strings.Contains(text.String(), msg) {
			t.Errorf("text sink missing %q:\n%s", msg, text.String())
		}
	}
	if strings.Contains(text.String(), "tier decision") {
		t.Errorf("Info-level text sink got a Debug record:\n%s", text.String())
	}

	// The nil recorder contributes no handler; alone it is the no-op logger.
	var none *FlightRecorder
	if NewLogger(Fanout(none.Handler())) != nil {
		t.Error("Fanout of a nil ring must collapse to the nil logger")
	}
}
