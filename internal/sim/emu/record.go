package emu

import (
	"fmt"
	"slices"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
)

// A replaying store (kernel.StepTape) records each workgroup when it binds
// the workgroup's first warp: its recorder runs the workgroup functionally,
// on the launch's own image and the caller's goroutine, and keeps per warp
// only what Step owes the timing machine, which replayStep then reads
// instead of executing values. Each warp's tape is one stream of words in
// step order: for each vector-memory step its active lane count and each
// lane's address register, for each s_load step its address register, and
// for each step that ends in a branch the PC after it. An address is its
// register plus the micro-op's static offset, so a register word holds it
// exactly. Everything else Step does — the BB and instruction counts, the
// s_barrier and s_endpgm flags, the next PC of a step that ends in no
// branch — follows from the micro-op table.
//
// The replay is exact for a program with no atomic and no race between
// warps, whose per-warp values do not depend on how warps interleave: the
// workgroups run in dispatch order, as a functional run of the launch
// does, and each warp steps as the detailed run would. A fault of the
// functional run panics in Bind, inside the detailed run, where a run that
// executes values meets it too.

// recorder records a replaying store's workgroups. Each workgroup's tapes
// go into an arena, which the workgroup's last Release puts back on the
// free list, so the recorder holds no more arenas than the store has held
// live workgroups at once.
type recorder struct {
	g     Group
	next  int      // the workgroup the next bind opens
	bound *arena   // the arena of the workgroup Bind binds
	free  []*arena // the arenas of released workgroups
	// hint is the length of the longest tape recorded: a shorter tape is
	// replaced by one of that capacity, so a warm recorder allocates
	// nothing.
	hint int
}

// arena holds one workgroup's tapes, one per warp.
type arena struct {
	live  int // the workgroup's warps still bound
	tapes [][]uint32
}

// open records workgroup group of l, which must be the next in order, into
// an arena, and binds the arena to the store's next binds.
func (r *recorder) open(l *kernel.Launch, group int) {
	if group != r.next {
		panic(fmt.Sprintf("emu: %s: replay binds workgroup %d, want %d: workgroups bind in order", l.Name, group, r.next))
	}
	r.next++
	var a *arena
	if n := len(r.free); n > 0 {
		a, r.free = r.free[n-1], r.free[:n-1]
	} else {
		a = new(arena)
	}
	a.reset(l.WarpsPerGroup, r.hint)
	g := &r.g
	g.Reset(l, group)
	g.store.recording, g.store.tapes = true, a.tapes
	if err := g.RunFunctional(); err != nil {
		panic(err)
	}
	for _, t := range a.tapes {
		r.hint = max(r.hint, len(t))
	}
	r.bound = a
}

// reset empties the arena for a workgroup of warps warps, each tape of at
// least capacity hint.
func (a *arena) reset(warps, hint int) {
	a.live = warps
	if cap(a.tapes) < warps {
		a.tapes = make([][]uint32, warps)
	}
	a.tapes = a.tapes[:warps]
	for i, t := range a.tapes {
		if cap(t) < hint {
			t = make([]uint32, 0, hint)
		}
		a.tapes[i] = t[:0]
	}
}

// record appends to tape t what step u, the micro-op just executed, owes
// the timing machine; next is the PC it left.
func (f *frame) record(t *[]uint32, u *isa.MicroOp, next int) {
	off := uint64(int64(u.Offset))
	switch {
	case u.Class == isa.FUBranch:
		*t = append(*t, uint32(next))
	case u.Step == isa.StepVectorMem:
		n := len(*t)
		w := slices.Grow(*t, 1+len(f.addrs))[:n+1+len(f.addrs)]
		w[n] = uint32(len(f.addrs))
		for i, a := range f.addrs {
			w[n+1+i] = uint32(a - off)
		}
		*t = w
	case u.Step == isa.StepScalarMem:
		*t = append(*t, uint32(f.addrs[0]-off))
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
