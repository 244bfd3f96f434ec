package emu_test

import (
	"slices"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
	"photon/internal/testutil"
	"photon/internal/verify"
	"photon/internal/workloads"
)

// replayRig replays a StepTape launch through one store sized as the
// detailed machine sizes its own, binding and retiring workgroups as its
// dispatch does: in order, while a workgroup's warps fit, and otherwise
// retiring a bound one, here the middle one of those bound, so workgroups
// retire out of order.
type replayRig struct {
	s      emu.WarpStore
	slots  int
	warps  []emu.Warp // by slot
	group  []int      // by slot: the bound workgroup, or -1
	live   []int      // bound workgroups, in bind order
	ws     []*emu.Warp
	insts  uint64
	arenas int // the most arenas the store held after a bind
	peak   int // the most workgroups bound at once
}

func newReplayRig(l *kernel.Launch, slots int) *replayRig {
	r := &replayRig{slots: slots, warps: make([]emu.Warp, slots), group: make([]int, slots),
		live: make([]int, 0, slots), ws: make([]*emu.Warp, 0, l.WarpsPerGroup)}
	return r
}

// run replays every workgroup of l, counting the store's arenas after
// every bind when count is set.
func (r *replayRig) run(l *kernel.Launch, count bool) {
	r.s.Configure(l, r.slots)
	r.live, r.insts = r.live[:0], 0
	for i := range r.group {
		r.group[i] = -1
	}
	free := r.slots
	for next := 0; next < l.NumWorkgroups || len(r.live) > 0; {
		if next < l.NumWorkgroups && free >= l.WarpsPerGroup {
			for i := range l.WarpsPerGroup {
				slot := r.s.Alloc()
				r.warps[slot] = r.s.Bind(slot, next*l.WarpsPerGroup+i, nil)
				r.group[slot] = next
			}
			r.live = append(r.live, next)
			next++
			free -= l.WarpsPerGroup
			r.peak = max(r.peak, len(r.live))
			if count {
				r.arenas = max(r.arenas, r.s.Arenas())
			}
			continue
		}
		at := len(r.live) / 2
		r.retire(r.live[at])
		r.live = append(r.live[:at], r.live[at+1:]...)
		free += l.WarpsPerGroup
	}
}

// retire runs workgroup g's warps to completion, resuming their barriers,
// and releases their slots.
func (r *replayRig) retire(g int) {
	r.ws = r.ws[:0]
	for slot, wg := range r.group {
		if wg == g {
			r.ws = append(r.ws, &r.warps[slot])
		}
	}
	for running := true; running; {
		running = false
		for _, w := range r.ws {
			for !w.Done() && !w.AtBarrier() {
				w.Step()
			}
		}
		for _, w := range r.ws {
			if !w.Done() {
				running = true
				w.ClearBarrier()
			}
		}
	}
	for _, w := range r.ws {
		r.insts += w.InstCount()
		r.group[w.Slot()] = -1
		r.s.Release(w.Slot())
	}
}

// image reads every allocated word of m.
func image(m *mem.Flat) []uint32 { return m.ReadWords(0, int(m.Alloc(0)/4)) }

// On verify's small GPU, a replay of SPMV, a dependent grid of more than
// four times the workgroups its CUs hold, never holds more tape arenas
// than workgroups it has had bound at once, counts the instructions and
// leaves the image a functional run does, and, once warm, allocates
// nothing.
func TestReplayArenasBoundedByLiveGroups(t *testing.T) {
	app, err := workloads.BuildSPMV(1024)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloads.BuildSPMV(1024)
	if err != nil {
		t.Fatal(err)
	}
	l := *app.Launches[0]
	l.Steps = kernel.StepTape
	slots := timing.ResidentWarpSlots(verify.SmallGPU().Compute, &l)
	if l.Program.Independent() || l.Program.HasAtomic() {
		t.Fatal("SPMV: want a dependent program without atomics")
	}
	if resident := slots / l.WarpsPerGroup; l.NumWorkgroups < 4*resident {
		t.Fatalf("%d workgroups, %d resident: want at least four times as many", l.NumWorkgroups, resident)
	}
	r := newReplayRig(&l, slots)
	r.run(&l, true)
	want, err := emu.RunKernelFunctional(ref.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.insts != want {
		t.Errorf("replay counted %d instructions, a functional run %d", r.insts, want)
	}
	if !slices.Equal(image(app.Mem), image(ref.Mem)) {
		t.Error("the replay left an image that differs from a functional run's")
	}
	if r.arenas > r.peak || r.s.Arenas() > r.peak {
		t.Errorf("the recorder held %d arenas, %d at the end, with at most %d workgroups bound", r.arenas, r.s.Arenas(), r.peak)
	}
	if testutil.RaceEnabled {
		return // the race detector's instrumentation allocates
	}
	if n := testing.AllocsPerRun(3, func() { r.run(&l, false) }); n != 0 {
		t.Errorf("a warm replay: %v allocs/op, want 0", n)
	}
}
