// Package event provides the discrete-event simulation engine that drives
// the timing model of the GPU simulator. Components schedule callbacks at
// future virtual times (measured in cycles); the engine executes them in
// time order, breaking ties by scheduling order so runs are deterministic.
//
// The engine is the innermost loop of detailed simulation, so it is built
// for allocation-free steady-state operation: events live in a monomorphic
// 4-ary min-heap (no interface boxing, no container/heap dispatch) fronted
// by a calendar wheel of per-cycle buckets that absorbs the overwhelmingly
// common "schedule a few cycles from now" case in O(1). Bucket slices and
// the heap's backing array are retained across events, so a warmed-up
// engine schedules and fires without touching the heap allocator at all.
// RefEngine keeps the original container/heap implementation for
// differential testing and benchmarking.
package event

// Time is a virtual timestamp measured in cycles. All GPU components in this
// repository share one clock domain (1 GHz in the paper's configurations), so
// a cycle count is also a nanosecond count.
type Time int64

// Handler is a callback invoked when an event fires. The handler receives
// the event's timestamp.
type Handler func(now Time)

type item struct {
	at      Time
	seq     uint64
	handler Handler
}

// less orders items by (at, seq): time first, scheduling order as the
// deterministic tie-break.
func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// wheelBits sizes the near-future wheel: events within wheelSize cycles
	// of now go into per-cycle buckets instead of the heap. 256 cycles
	// covers every latency the timing model schedules directly (issue
	// occupancy, exec latency, barrier and dispatch delays); only cache-miss
	// completions reach the heap.
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events uint64

	// wheel[t&wheelMask] holds the events at time t for now <= t <
	// now+wheelSize; at most one timestamp occupies a bucket at a time, so
	// appending keeps each bucket in seq order. wheelHead is the consumed
	// prefix of the bucket being drained, wheelCount the live events across
	// all buckets.
	wheel      [wheelSize][]item
	wheelHead  [wheelSize]int
	wheelCount int

	// spare recycles the backing storage of fully-drained buckets. Capacity
	// must not stay pinned to a slot: which slots run deep depends on the
	// clock phase (time mod wheelSize), which shifts between kernels, so
	// per-slot retention would keep allocating as the phase rotates. Sharing
	// drained storage across slots makes capacity follow demand instead.
	spare [][]item

	// heap is a 4-ary min-heap ordered by (at, seq) holding the far-future
	// events (at - now >= wheelSize at scheduling time).
	heap []item
}

// New returns a ready-to-run engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.wheelCount + len(e.heap) }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// Schedule registers handler to run at time at. Scheduling in the past (or
// at the current instant) fires the handler at the current time, preserving
// causality without requiring callers to clamp.
func (e *Engine) Schedule(at Time, handler Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if at-e.now < wheelSize {
		slot := int(at) & wheelMask
		b := e.wheel[slot]
		if b == nil {
			if k := len(e.spare); k > 0 {
				b = e.spare[k-1]
				e.spare[k-1] = nil
				e.spare = e.spare[:k-1]
			}
		}
		e.wheel[slot] = append(b, item{at: at, seq: e.seq, handler: handler})
		e.wheelCount++
		return
	}
	e.heapPush(item{at: at, seq: e.seq, handler: handler})
}

// After registers handler to run delay cycles from now.
func (e *Engine) After(delay Time, handler Handler) {
	e.Schedule(e.now+delay, handler)
}

// wheelNext returns the earliest wheel timestamp with a pending event.
// The scan walks at most wheelSize buckets, but the first occupied bucket is
// almost always within a cycle or two of now.
func (e *Engine) wheelNext() (Time, bool) {
	if e.wheelCount == 0 {
		return 0, false
	}
	for d := Time(0); d < wheelSize; d++ {
		slot := int(e.now+d) & wheelMask
		if e.wheelHead[slot] < len(e.wheel[slot]) {
			return e.now + d, true
		}
	}
	return 0, false
}

// wheelPop removes and returns the next event of the bucket holding time t.
// The caller guarantees the bucket is non-empty.
func (e *Engine) wheelPop(t Time) item {
	slot := int(t) & wheelMask
	h := e.wheelHead[slot]
	it := e.wheel[slot][h]
	e.wheel[slot][h] = item{} // release the handler reference
	h++
	if h == len(e.wheel[slot]) {
		// Fully drained: return the storage to the shared spare pool so the
		// next busy bucket — whatever its slot — reuses it.
		e.spare = append(e.spare, e.wheel[slot][:0])
		e.wheel[slot] = nil
		h = 0
	}
	e.wheelHead[slot] = h
	e.wheelCount--
	return it
}

// popNext removes the globally minimal (at, seq) event from whichever
// structure holds it.
func (e *Engine) popNext() (item, bool) {
	wt, wok := e.wheelNext()
	hok := len(e.heap) > 0
	switch {
	case !wok && !hok:
		return item{}, false
	case wok && !hok:
		return e.wheelPop(wt), true
	case hok && !wok:
		return e.heapPop(), true
	}
	// Both pending: the wheel wins on earlier time, and on equal times the
	// lower seq (bucket items are seq-ordered, so the head is the bucket's
	// minimum).
	if wt < e.heap[0].at {
		return e.wheelPop(wt), true
	}
	if wt == e.heap[0].at {
		slot := int(wt) & wheelMask
		if e.wheel[slot][e.wheelHead[slot]].seq < e.heap[0].seq {
			return e.wheelPop(wt), true
		}
	}
	return e.heapPop(), true
}

// Run executes events until the queue drains, then returns the final time.
func (e *Engine) Run() Time {
	for {
		it, ok := e.popNext()
		if !ok {
			return e.now
		}
		e.now = it.at
		e.events++
		it.handler(e.now)
	}
}

// Step executes exactly one event if any is pending, reporting whether one
// fired.
func (e *Engine) Step() bool {
	it, ok := e.popNext()
	if !ok {
		return false
	}
	e.now = it.at
	e.events++
	it.handler(e.now)
	return true
}

// heapPush inserts into the 4-ary heap. A 4-ary layout halves the tree
// depth of a binary heap and keeps each node's children in one cache line,
// which is where container/heap's generic version loses most of its time.
func (e *Engine) heapPush(it item) {
	h := append(e.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !it.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.heap = h
}

// heapPop removes and returns the heap's minimal item.
func (e *Engine) heapPop() item {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = item{} // release the handler reference
	h = h[:n]
	e.heap = h
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown places it, logically at the root, into its final position.
func (e *Engine) siftDown(it item) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(h[m]) {
				m = c
			}
		}
		if !h[m].less(it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}
