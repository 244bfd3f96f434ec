// Package trace provides an execution tracer for the detailed timing model:
// a timing.Observer subscriber that streams warp, basic-block and instruction
// events to a writer, in the spirit of MGPUSim's visualization traces. Traces
// are the tool of first resort when a kernel's timing behavior needs
// explaining (why did the IPC dip? which block inflates a warp's runtime?).
package trace

import (
	"bufio"
	"io"
	"strconv"
	"sync"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/timing"
)

// Level selects how much detail the tracer records.
type Level int

const (
	// LevelWarp records warp start/retire events only.
	LevelWarp Level = iota
	// LevelBlock additionally records basic-block retirements.
	LevelBlock
	// LevelInst additionally records every instruction issue. Very large.
	LevelInst
)

// Tracer writes one event per line:
//
//	W+ <time> warp=<id>                      warp start
//	W- <time> warp=<id> issue=<t>            warp retire
//	B  <time> warp=<id> block=<idx> dur=<d>  block retirement
//	I  <time> cu=<id> warp=<id> fu=<class> lat=<l>
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	level Level

	err     error  // first write error; later events are dropped
	dropped uint64 // events not written because of err

	// scratch is the reusable line buffer: events are formatted with
	// strconv.Append* into it instead of fmt, so steady-state tracing does
	// not allocate. Guarded by mu.
	scratch []byte

	Warps  uint64
	Blocks uint64
	Insts  uint64
}

// New creates a tracer writing to w at the given level.
func New(w io.Writer, level Level) *Tracer {
	return &Tracer{w: bufio.NewWriter(w), level: level}
}

// Flush drains buffered events; call it when simulation finishes. It returns
// the first error hit anywhere in the trace's lifetime — a failed event
// write poisons the trace even when the final flush succeeds, so callers
// never mistake a truncated trace for a complete one.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Err returns the first write error, or nil for a healthy trace.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Dropped counts events discarded after the first write error.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// emit writes the scratch line, recording the first failure and counting
// every event discarded afterwards. Callers must hold t.mu.
func (t *Tracer) emit() {
	if t.err != nil {
		t.dropped++
		return
	}
	if _, err := t.w.Write(t.scratch); err != nil {
		t.err = err
		t.dropped++
	}
}

// line resets the scratch buffer and appends the event tag plus timestamp.
// Callers must hold t.mu.
func (t *Tracer) line(tag string, now event.Time) {
	t.scratch = append(t.scratch[:0], tag...)
	t.scratch = strconv.AppendInt(t.scratch, int64(now), 10)
}

func (t *Tracer) field(name string, v int64) {
	t.scratch = append(t.scratch, name...)
	t.scratch = strconv.AppendInt(t.scratch, v, 10)
}

// Observer subscribes the tracer to the events its level records, so a
// warp-level trace costs a run nothing per instruction or block.
func (t *Tracer) Observer() timing.Observer {
	o := timing.Observer{WarpStart: t.OnWarpStart, WarpRetired: t.OnWarpRetired}
	if t.level >= LevelBlock {
		o.BlockRetired = t.OnBlockRetired
	}
	if t.level >= LevelInst {
		o.InstIssued = t.OnInstIssued
	}
	return o
}

// OnWarpStart records a warp's first issue.
func (t *Tracer) OnWarpStart(now event.Time, w *emu.Warp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.line("W+ ", now)
	t.field(" warp=", int64(w.GlobalID))
	t.scratch = append(t.scratch, '\n')
	t.emit()
}

// OnWarpRetired records a warp's retirement.
func (t *Tracer) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Warps++
	t.line("W- ", now)
	t.field(" warp=", int64(w.GlobalID))
	t.field(" issue=", int64(issue))
	t.field(" insts=", int64(w.InstCount()))
	t.scratch = append(t.scratch, '\n')
	t.emit()
}

// OnBlockRetired records a basic-block interval.
func (t *Tracer) OnBlockRetired(now event.Time, w *emu.Warp, blockIdx int, enter, exit event.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Blocks++
	t.line("B  ", now)
	t.field(" warp=", int64(w.GlobalID))
	t.field(" block=", int64(blockIdx))
	t.field(" dur=", int64(exit-enter))
	t.scratch = append(t.scratch, '\n')
	t.emit()
}

// OnInstIssued records one instruction issue.
func (t *Tracer) OnInstIssued(now event.Time, cuID int, w *emu.Warp, class isa.FUClass, lat event.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Insts++
	t.line("I  ", now)
	t.field(" cu=", int64(cuID))
	t.field(" warp=", int64(w.GlobalID))
	t.scratch = append(t.scratch, " fu="...)
	t.scratch = append(t.scratch, class.String()...)
	t.field(" lat=", int64(lat))
	t.scratch = append(t.scratch, '\n')
	t.emit()
}
