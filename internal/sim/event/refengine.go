package event

import "container/heap"

// RefEngine is the original container/heap implementation of the engine,
// retained as the reference for differential determinism tests and as the
// baseline the event-engine microbenchmarks compare against. It fires
// events in exactly the same (at, seq) order as Engine but pays interface
// boxing and an allocation on every Schedule.
type RefEngine struct {
	now    Time
	seq    uint64
	queue  refHeap
	events uint64
}

type refHeap []item

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool { return h[i].less(h[j]) }

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(item)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NewRef returns a ready-to-run reference engine with the clock at zero.
func NewRef() *RefEngine { return &RefEngine{} }

// Now returns the current virtual time.
func (e *RefEngine) Now() Time { return e.now }

// Pending reports how many events are waiting to fire.
func (e *RefEngine) Pending() int { return len(e.queue) }

// Processed returns the total number of events executed so far.
func (e *RefEngine) Processed() uint64 { return e.events }

// Schedule registers handler to run at time at, clamping past times to now.
func (e *RefEngine) Schedule(at Time, handler Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, item{at: at, seq: e.seq, handler: handler})
}

// After registers handler to run delay cycles from now.
func (e *RefEngine) After(delay Time, handler Handler) {
	e.Schedule(e.now+delay, handler)
}

// Run executes events until the queue drains, then returns the final time.
func (e *RefEngine) Run() Time {
	for len(e.queue) > 0 {
		it := heap.Pop(&e.queue).(item)
		e.now = it.at
		e.events++
		it.handler(e.now)
	}
	return e.now
}

// Step executes exactly one event if any is pending.
func (e *RefEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := heap.Pop(&e.queue).(item)
	e.now = it.at
	e.events++
	it.handler(e.now)
	return true
}
