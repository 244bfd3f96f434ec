package emu

import (
	"fmt"
	"runtime/debug"
	"slices"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// Recording is a functional run of a launch's workgroups, in order, that
// keeps per warp only what Step owes the timing machine, so that a detailed
// run over no image can replay it (kernel.Launch.Replay) instead of
// executing values. Each warp's tape is one stream of words in step order:
// for each vector-memory step its active lane count and each lane's
// address register, for each s_load step its address register, and for
// each step that ends in a branch the PC after it. An address is its
// register plus the micro-op's static offset, so a register word holds it
// exactly. Everything else Step does — the BB and instruction counts, the
// s_barrier and s_endpgm flags, the next PC of a step that ends in no
// branch — follows from the micro-op table.
//
// The tapes are bounded. Record takes one arena per workgroup from a pool
// of the size NewRecording was given and the replay returns it when the
// workgroup retires. The pool must hold at least the replaying machine's
// resident-workgroup capacity + 1 arenas (timing.ResidentGroups + 1). The
// replay then never waits for Record while Record waits for it: when the
// pool is empty the replay holds at most the capacity's arenas in live
// workgroups, so at least one recorded workgroup waits for dispatch, and
// the replay dispatches in order, so the next one it needs is recorded.
//
// The replay is exact for a program with no atomic and no race between
// warps, whose per-warp values do not depend on how warps interleave: the
// in-order functional run steps each warp as the detailed run would.
type Recording struct {
	pool  chan *arena // free arenas
	ready chan *arena // recorded workgroups, in order
	// cause is why Record ended before the workgroup the replay waits
	// for, set before Record closes ready.
	cause error
	// hint is the length of the last tape Record finished: a fresh tape
	// starts at that capacity.
	hint int
}

// arena holds one workgroup's tapes, one per warp.
type arena struct {
	group int
	live  int // the workgroup's warps still bound by the replay
	tapes []tape
}

// tape is one warp's stream of words.
type tape struct {
	a     *arena
	words []uint32
}

// RecordsSteps implements kernel.Recording.
func (*Recording) RecordsSteps() {}

// NewRecording returns a recording whose pool holds arenas arenas; see
// Recording for the bound a replay needs.
func NewRecording(arenas int) *Recording {
	r := &Recording{pool: make(chan *arena, arenas), ready: make(chan *arena, arenas)}
	for range arenas {
		r.pool <- new(arena)
	}
	return r
}

// Record runs every workgroup of l functionally, in order, on l's image,
// recording each warp's tape, and returns the instruction count, or the
// error of the workgroup that failed. It stops early, with an error, once
// stop is closed: at a workgroup boundary, or while it waits for an arena;
// a count cut short is no result. A panic of the recording becomes its
// error, carrying the recording goroutine's stack. Record ends the
// recording: a replay that waits for a workgroup it did not record panics
// with its error.
func (r *Recording) Record(l *kernel.Launch, stop <-chan struct{}) (insts uint64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &Panic{V: v, Stack: debug.Stack(), Run: "functional recording"}
		}
		r.cause = err
		close(r.ready)
	}()
	var g Group
	for wg := range l.NumWorkgroups {
		var a *arena
		select {
		case a = <-r.pool:
		case <-stop:
			return 0, fmt.Errorf("emu: %s: recording stopped before workgroup %d of %d", l.Name, wg, l.NumWorkgroups)
		}
		g.Reset(l, wg)
		a.reset(wg, l.WarpsPerGroup, r.hint)
		g.store.recording = true
		g.store.tape = resize(g.store.tape, len(a.tapes))
		for i := range a.tapes {
			g.store.tape[i] = &a.tapes[i]
		}
		if err := g.RunFunctional(); err != nil {
			return insts, err
		}
		for _, w := range g.Warps {
			insts += w.InstCount()
		}
		r.hint = len(a.tapes[len(a.tapes)-1].words)
		r.ready <- a // never blocks: ready holds every arena
	}
	return insts, nil
}

// Panic is a panic of a functional run beside a detailed one (a
// Recording, a gpu.Pass) with the stack of the goroutine it ran on, which
// the detailed run raises again on its own goroutine, where a serial run
// would have met the panic.
type Panic struct {
	V     any
	Stack []byte
	Run   string // what ran: "functional recording", "functional pass"
}

func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s:\n%s", p.V, p.Run, p.Stack) }

// take returns the arena of workgroup group, the next the replay binds,
// waiting for Record to finish it.
func (r *Recording) take(l *kernel.Launch, group int) *arena {
	a, ok := <-r.ready
	switch {
	case !ok && r.cause != nil:
		panic(r.cause)
	case !ok:
		panic(fmt.Sprintf("emu: %s: replay of workgroup %d, which was never recorded", l.Name, group))
	case a.group != group:
		panic(fmt.Sprintf("emu: %s: replay of workgroup %d met the recording of %d", l.Name, group, a.group))
	}
	return a
}

// reset empties the arena for workgroup group's warps; a tape that never
// held words starts at capacity hint.
func (a *arena) reset(group, warps, hint int) {
	a.group, a.live = group, warps
	if cap(a.tapes) < warps {
		a.tapes = make([]tape, warps)
	}
	a.tapes = a.tapes[:warps]
	for i := range a.tapes {
		t := &a.tapes[i]
		t.a, t.words = a, t.words[:0]
		if cap(t.words) == 0 {
			t.words = make([]uint32, 0, hint)
		}
	}
}

// record appends to tape t what step u, the micro-op just executed, owes
// the timing machine; next is the PC it left.
func (f *frame) record(t *tape, u *isa.MicroOp, next int) {
	off := uint64(int64(u.Offset))
	switch {
	case u.Class == isa.FUBranch:
		t.words = append(t.words, uint32(next))
	case u.Step == isa.StepVectorMem:
		n := len(t.words)
		t.words = slices.Grow(t.words, 1+len(f.addrs))[:n+1+len(f.addrs)]
		t.words[n] = uint32(len(f.addrs))
		for i, a := range f.addrs {
			t.words[n+1+i] = uint32(a - off)
		}
	case u.Step == isa.StepScalarMem:
		t.words = append(t.words, uint32(f.addrs[0]-off))
	}
}

// replayStep is Step over the tape bound to the warp's slot: the counts
// and the s_barrier and s_endpgm flags come from the micro-op table, the
// addresses and the next PC of a step that ends in a branch from the tape,
// read in the order record wrote them. It touches no register and no
// memory; the addresses it returns alias the store's scratch buffer.
func (w *Warp) replayStep() []uint64 {
	st, slot := w.store, w.slot
	words, at := st.words[slot], int(st.at[slot])
	uops := w.Launch.Program.MicroOps()
	pc := int(st.pc[slot])
	u := &uops[pc]
	if u.Head {
		st.bb[slot*st.blocks+int(u.Block)]++
	}
	st.instCount[slot] += 1 + uint64(u.Run)
	var addrs []uint64
	switch u.Step {
	case isa.StepVectorMem:
		n, off, buf := int(words[at]), uint64(int64(u.Offset)), &st.addrBuf
		for i, a := range words[at+1 : at+1+n] {
			buf[i] = uint64(a) + off
		}
		addrs, at = buf[:n], at+1+n
	case isa.StepScalarMem:
		st.addrBuf[0] = uint64(words[at]) + uint64(int64(u.Offset))
		addrs, at = st.addrBuf[:1], at+1
	case isa.StepBarrier:
		st.flags[slot] |= flagBarrier
	case isa.StepDone:
		st.flags[slot] |= flagDone
	}
	next := pc + 1 + int(u.Run)
	if uops[next-1].Class == isa.FUBranch {
		next, at = int(words[at]), at+1
	}
	st.pc[slot], st.at[slot] = int32(next), int32(at)
	return addrs
}
