package main

import (
	"container/heap"
	"time"
)

// The yardstick is a small discrete-event loop the benchmark owns: a heap of
// timed wake-ups over units that each churn a register file and a shared
// 16 MB memory, with one small allocation per event. It does a fixed amount
// of work shaped like the simulator's (heap pops, pointer-sized state, cache
// misses, garbage), so the time it takes tracks how fast this host is
// running that kind of code right now.
//
// It exists because the shared hosts this benchmark runs on slow down and
// speed up by 10–20 % for minutes at a time (memory-system contention from
// neighbours; a pure ALU loop stays steady), and every metric moves with it.
// An untraced run samples the yardstick between its timed calls and reports
// each time metric at reference host speed: value × yardRef / yardstick
// median of the run. See README "Host-speed normalisation".
//
// Never change this code or yardRef: doing so rebases every end-to-end
// metric and breaks comparison with earlier commits.

const (
	yardUnits  = 2560
	yardRegs   = 256
	yardWords  = 4 << 20 // 16 MB of uint32
	yardEvents = 60_000
	// yardRef is the yardstick's time on the reference host in calm
	// conditions; the unit metrics are normalised to.
	yardRef = 0.050
	// yardEvery is the shortest interval between two readings in the
	// simulation phase.
	yardEvery = 500 * time.Millisecond
)

type yardEvent struct {
	at   int64
	unit int32
}

type yardHeap []yardEvent

func (h yardHeap) Len() int           { return len(h) }
func (h yardHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h yardHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *yardHeap) Push(x any)        { *h = append(*h, x.(yardEvent)) }
func (h *yardHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type yardUnit struct {
	regs  []uint32
	trail *[16]uint32
}

var sinkYard uint32

// yardstick runs the fixed loop once and returns its wall in seconds. State
// is built fresh and dropped each time so the process's live heap — and with
// it the GC pacing the simulator sees — is the same as without it.
func yardstick() float64 {
	mem := make([]uint32, yardWords)
	units := make([]yardUnit, yardUnits)
	h := make(yardHeap, 0, yardUnits)
	for i := range units {
		units[i].regs = make([]uint32, yardRegs)
		for k := range units[i].regs {
			units[i].regs[k] = uint32(i*977 + k*131 + 1)
		}
		h = append(h, yardEvent{int64(i % 64), int32(i)})
	}
	heap.Init(&h)
	t0 := time.Now()
	var acc uint32
	for e := 0; e < yardEvents; e++ {
		ev := heap.Pop(&h).(yardEvent)
		u := &units[ev.unit]
		for k := 0; k < 24; k++ {
			r := u.regs[(k*7)&(yardRegs-1)]
			idx := (r >> 7) % yardWords
			r = r*1664525 + 1013904223 + mem[idx]
			mem[idx] = r
			u.regs[(k*7)&(yardRegs-1)] = r
			acc += r
		}
		u.trail = &[16]uint32{acc}
		heap.Push(&h, yardEvent{ev.at + 1 + int64(acc&15), ev.unit})
	}
	sinkYard = acc
	return time.Since(t0).Seconds()
}
