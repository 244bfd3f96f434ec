package serve

import "sync"

// eventHub is one execution's progress broadcaster. Subscribers get a
// replay of everything published so far (so a client that attaches after
// the job started still sees the whole lifecycle) followed by live events;
// after the terminal event the hub closes every channel. Publishing never
// blocks the execution: a subscriber that stops draining its buffered
// channel loses events rather than stalling the worker pool.
//
// Every published event carries a hub-assigned sequence number (1, 2, …),
// which the SSE layer exposes as the event id: a client that reconnects
// with Last-Event-ID resumes after the last event it saw instead of
// replaying (and double-printing) the whole stream.
type eventHub struct {
	mu     sync.Mutex
	past   []Event
	subs   map[chan Event]struct{}
	closed bool
}

// subBuffer is each subscriber's channel capacity. Deep enough for a full
// quick sweep's spans; a slow SSE client that falls further behind than
// this drops events (documented behavior, not an error).
const subBuffer = 256

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan Event]struct{})}
}

// publish assigns ev its sequence number, records it and forwards it to
// every live subscriber.
func (h *eventHub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	ev.Seq = uint64(len(h.past)) + 1
	h.past = append(h.past, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop rather than block the execution
		}
	}
}

// close ends the stream: subscribers' channels are closed after the events
// already queued, and future subscribers get replay-then-closed.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = nil
}

// subscribeFrom returns the replay of past events with sequence numbers
// greater than after, plus a live channel (nil and closed-state when the hub
// already ended — the replay is still complete because the terminal event is
// always published before close). after = 0 replays everything; a client
// resuming a dropped SSE connection passes the last id it saw. cancel
// detaches the subscriber; it is safe to call after the hub closed.
func (h *eventHub) subscribeFrom(after uint64) (replay []Event, live <-chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Sequence numbers are positions in past, so the resume point is a slice
	// offset; an id from the future (a stale client talking to a restarted
	// execution) clamps to "nothing to replay".
	start := after
	if start > uint64(len(h.past)) {
		start = uint64(len(h.past))
	}
	replay = append([]Event(nil), h.past[start:]...)
	if h.closed {
		return replay, nil, func() {}
	}
	ch := make(chan Event, subBuffer)
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
}
