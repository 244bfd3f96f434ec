package serve

import "sync"

// eventHub is one execution's progress broadcaster. Subscribers get a
// replay of the most recent hubReplay events published so far (so a client
// that attaches after the job started still sees its recent past, and always
// the terminal event of a finished job) followed by live events; after the
// terminal event the hub closes every channel. Publishing never blocks the
// execution: a subscriber that stops draining its buffered channel loses
// events rather than stalling the worker pool.
//
// Every published event carries a hub-assigned sequence number (1, 2, …),
// which the SSE layer exposes as the event id: a client that reconnects
// with Last-Event-ID resumes after the last event it saw instead of
// replaying (and double-printing) the whole stream. Numbers keep counting
// when old events fall out of the replay window, so a gap between a
// client's last id and the first replayed id means events were trimmed.
type eventHub struct {
	mu     sync.Mutex
	past   []Event // ring: the event numbered s sits at (s-1) % hubReplay
	seq    uint64  // number of the last published event
	subs   map[chan Event]struct{}
	closed bool
}

// hubReplay bounds the events a hub retains for replay: eight seconds of
// the 512 records/s job-log budget. The job table keeps hubs of finished
// jobs, so without a bound a long Debug-tailed run held every record it ever
// published.
const hubReplay = 4096

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
	h.seq++
	ev.Seq = h.seq
	if len(h.past) < hubReplay {
		h.past = append(h.past, ev)
	} else {
		h.past[(ev.Seq-1)%hubReplay] = ev
	}
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

// subscribeFrom returns the replay of retained events with sequence numbers
// greater than after, plus a live channel (nil and closed-state when the hub
// already ended — the replay still ends with the terminal event, which is
// published last and so is always retained). after = 0 replays everything
// retained; a client resuming a dropped SSE connection passes the last id it
// saw. cancel detaches the subscriber; it is safe to call after the hub
// closed.
func (h *eventHub) subscribeFrom(after uint64) (replay []Event, live <-chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// An id older than the replay window clamps to the oldest retained
	// event; an id from the future (a stale client talking to a restarted
	// execution) clamps to "nothing to replay".
	start := min(max(after, h.seq-uint64(len(h.past))), h.seq)
	replay = make([]Event, 0, h.seq-start)
	for s := start; s < h.seq; s++ {
		replay = append(replay, h.past[s%hubReplay])
	}
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
