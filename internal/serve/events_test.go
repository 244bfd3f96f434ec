package serve

import (
	"fmt"
	"testing"
)

// TestHubSequenceNumbers: publish assigns 1-based, strictly increasing
// sequence numbers, and subscribers see them both in replay and live.
func TestHubSequenceNumbers(t *testing.T) {
	h := newEventHub()
	h.publish(Event{Type: "state", State: StateQueued})
	h.publish(Event{Type: "state", State: StateRunning})

	replay, live, cancel := h.subscribeFrom(0)
	defer cancel()
	if len(replay) != 2 {
		t.Fatalf("replay len = %d, want 2", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != uint64(i)+1 {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	h.publish(Event{Type: "result", State: StateDone})
	if ev := <-live; ev.Seq != 3 {
		t.Fatalf("live event Seq = %d, want 3", ev.Seq)
	}
}

// TestHubSubscribeFromResumes is the Last-Event-ID regression test at the
// hub level: a subscriber resuming after event k gets exactly the events
// k+1..n — no duplicates, no gaps — which is what keeps `photon-ctl watch`
// from double-printing a job's lifecycle after a dropped proxy connection.
func TestHubSubscribeFromResumes(t *testing.T) {
	h := newEventHub()
	const n = 5
	for i := 1; i <= n; i++ {
		h.publish(Event{Type: "log", Msg: fmt.Sprintf("ev-%d", i)})
	}
	for after := uint64(0); after <= n; after++ {
		replay, _, cancel := h.subscribeFrom(after)
		if got, want := len(replay), n-int(after); got != want {
			t.Fatalf("subscribeFrom(%d) replayed %d events, want %d", after, got, want)
		}
		for i, ev := range replay {
			wantSeq := after + uint64(i) + 1
			if ev.Seq != wantSeq {
				t.Fatalf("subscribeFrom(%d) replay[%d].Seq = %d, want %d", after, i, ev.Seq, wantSeq)
			}
			if want := fmt.Sprintf("ev-%d", wantSeq); ev.Msg != want {
				t.Fatalf("subscribeFrom(%d) replay[%d].Msg = %q, want %q", after, i, ev.Msg, want)
			}
		}
		cancel()
	}
}

// TestHubSubscribeFromFutureID: an id beyond anything published (a stale
// client talking to a fresh execution of the same job) clamps to "nothing
// to replay" rather than panicking or replaying from the start.
func TestHubSubscribeFromFutureID(t *testing.T) {
	h := newEventHub()
	h.publish(Event{Type: "state", State: StateQueued})
	replay, live, cancel := h.subscribeFrom(99)
	defer cancel()
	if len(replay) != 0 {
		t.Fatalf("future-id replay len = %d, want 0", len(replay))
	}
	// The subscription is still live: the next publish arrives.
	h.publish(Event{Type: "result", State: StateDone})
	if ev := <-live; ev.Seq != 2 {
		t.Fatalf("live Seq after future-id resume = %d, want 2", ev.Seq)
	}
}

// TestHubResumeAfterClose: resuming against a finished job replays the tail
// (terminal event included) with a nil live channel — the reconnecting
// client prints what it missed and exits cleanly.
func TestHubResumeAfterClose(t *testing.T) {
	h := newEventHub()
	h.publish(Event{Type: "state", State: StateRunning})
	h.publish(Event{Type: "result", State: StateDone})
	h.close()

	replay, live, cancel := h.subscribeFrom(1)
	defer cancel()
	if live != nil {
		t.Fatal("live channel not nil after hub close")
	}
	if len(replay) != 1 || replay[0].Type != "result" || replay[0].Seq != 2 {
		t.Fatalf("post-close resume replay = %+v, want the terminal event only", replay)
	}
}

// TestHubReplayIsBounded: a hub retains the last hubReplay events, not the
// job's whole history. A late subscriber gets exactly that window with
// contiguous, still-monotonic sequence numbers and the terminal event last;
// a Last-Event-ID from before the window clamps to its oldest event, one
// from inside it resumes exactly.
func TestHubReplayIsBounded(t *testing.T) {
	h := newEventHub()
	const extra = 37
	const total = hubReplay + extra
	for i := 1; i < total; i++ {
		h.publish(Event{Type: "log", Msg: fmt.Sprintf("ev-%d", i)})
	}
	h.publish(Event{Type: "result", State: StateDone})
	h.close()
	if len(h.past) != hubReplay {
		t.Fatalf("hub retains %d events, want the cap %d", len(h.past), hubReplay)
	}

	for _, tc := range []struct {
		after uint64
		first uint64 // Seq of the first replayed event
	}{
		{0, extra + 1},             // late subscriber: the last hubReplay events
		{5, extra + 1},             // resume point trimmed away: clamp to the oldest retained
		{extra, extra + 1},         // resume exactly at the window's edge
		{extra + 100, extra + 101}, // resume inside the window
		{total - 1, total},         // only the terminal event missed
		{total, total + 1},         // nothing missed
		{total + 50, total + 1},    // id from the future
	} {
		replay, live, cancel := h.subscribeFrom(tc.after)
		cancel()
		if live != nil {
			t.Fatal("live channel not nil after hub close")
		}
		if got, want := len(replay), int(total+1-tc.first); got != want {
			t.Fatalf("subscribeFrom(%d) replayed %d events, want %d", tc.after, got, want)
		}
		for i, ev := range replay {
			if ev.Seq != tc.first+uint64(i) {
				t.Fatalf("subscribeFrom(%d) replay[%d].Seq = %d, want %d", tc.after, i, ev.Seq, tc.first+uint64(i))
			}
			if ev.Seq < total && ev.Msg != fmt.Sprintf("ev-%d", ev.Seq) {
				t.Fatalf("subscribeFrom(%d) replay[%d] = %+v: wrong event under that number", tc.after, i, ev)
			}
		}
		if n := len(replay); n > 0 && replay[n-1].Type != "result" {
			t.Fatalf("subscribeFrom(%d): replay does not end with the terminal event: %+v", tc.after, replay[n-1])
		}
	}
}
