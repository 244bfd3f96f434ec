package verify

import (
	"fmt"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

// RunCase runs the case through every engine and returns all invariant
// violations found (empty means the case passes):
//
//   - the functional emulator vs the detailed timing model: per-warp final
//     architectural state (registers, EXEC/VCC/SCC, mask slots, PC, BBVs)
//     and the full contents of all three memory segments must match;
//   - conservation: per-warp issued == retired instruction count, the sum of
//     per-warp counts == the machine's total, BBV-weighted block lengths ==
//     the instruction count, every warp retires, and the cache hierarchy's
//     flow equations hold;
//   - engine equivalence: the production event Engine and the reference
//     RefEngine must produce identical results, retire times, states,
//     memory, and cache statistics.
func RunCase(c *Case) []Violation {
	var vs []Violation
	fail := func(kind, format string, args ...any) {
		vs = append(vs, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	prog, err := c.Program()
	if err != nil {
		fail("program", "%v", err)
		return vs
	}

	fstates, fmem, err := runFunctional(c)
	if err != nil {
		fail("functional", "%v", err)
		return vs
	}
	t1, err := runTiming(c, event.New())
	if err != nil {
		fail("timing", "%v", err)
		return vs
	}
	t2, err := runTiming(c, event.NewRef())
	if err != nil {
		fail("timing-ref", "%v", err)
		return vs
	}

	total := c.TotalWarps()

	// Completeness and conserved counters on the timing run.
	if !t1.res.Complete {
		fail("conservation", "timing run incomplete: nextWG %d of %d",
			t1.res.NextWG, c.NumWorkgroups)
	}
	if t1.res.WarpsSimulated != total {
		fail("conservation", "warps simulated %d != launched %d", t1.res.WarpsSimulated, total)
	}
	if len(t1.states) != total {
		fail("conservation", "%d warps retired, want %d", len(t1.states), total)
	}
	var sum uint64
	for id, st := range t1.states {
		sum += st.InstCount
		if got := t1.issued[id]; got != st.InstCount {
			fail("conservation", "warp %d: %d instructions issued but %d retired", id, got, st.InstCount)
		}
		var bb uint64
		for i, n := range st.BBCounts {
			bb += uint64(n) * uint64(prog.Blocks[i].Len)
		}
		if bb != st.InstCount {
			fail("conservation", "warp %d: BBV-weighted instruction count %d != %d", id, bb, st.InstCount)
		}
	}
	if sum != t1.res.InstCount {
		fail("conservation", "per-warp instruction counts sum to %d, machine reports %d",
			sum, t1.res.InstCount)
	}
	if t1.conserv != nil {
		fail("conservation", "%v", t1.conserv)
	}

	// Functional vs timing: identical architectural outcomes.
	var fsum uint64
	for _, st := range fstates {
		fsum += st.InstCount
	}
	if fsum != sum {
		fail("diff", "functional executed %d instructions, timing %d", fsum, sum)
	}
	for id := 0; id < total; id++ {
		fs, fok := fstates[id]
		ts, tok := t1.states[id]
		if !fok || !tok {
			fail("diff", "warp %d missing (functional retired: %v, timing retired: %v)", id, fok, tok)
			continue
		}
		if d := fs.Diff(&ts); d != "" {
			fail("diff", "warp %d final state differs (functional vs timing):\n%s", id, d)
		}
	}
	diffWords(&vs, "diff", "functional", "timing", fmem, t1.mem)

	// Engine equivalence: Engine vs RefEngine.
	if t1.res != t2.res {
		fail("engine", "results differ: Engine %+v vs RefEngine %+v", t1.res, t2.res)
	}
	for id := 0; id < total; id++ {
		if t1.retireAt[id] != t2.retireAt[id] {
			fail("engine", "warp %d retires at %d on Engine, %d on RefEngine",
				id, t1.retireAt[id], t2.retireAt[id])
		}
		s1, ok1 := t1.states[id]
		s2, ok2 := t2.states[id]
		if ok1 && ok2 {
			if d := s1.Diff(&s2); d != "" {
				fail("engine", "warp %d final state differs (Engine vs RefEngine):\n%s", id, d)
			}
		}
	}
	diffWords(&vs, "engine", "Engine", "RefEngine", t1.mem, t2.mem)
	if t1.stats != t2.stats {
		fail("engine", "memory stats differ: Engine %+v vs RefEngine %+v", t1.stats, t2.stats)
	}
	return vs
}

// diffWords compares two memory images word by word, reporting the first few
// mismatches.
func diffWords(vs *[]Violation, kind, aName, bName string, a, b []uint32) {
	if len(a) != len(b) {
		*vs = append(*vs, Violation{kind, fmt.Sprintf(
			"memory image sizes differ: %s %d words, %s %d", aName, len(a), bName, len(b))})
		return
	}
	const maxReports = 8
	n := 0
	for i := range a {
		if a[i] != b[i] {
			if n < maxReports {
				*vs = append(*vs, Violation{kind, fmt.Sprintf(
					"memory word %d: %s %#x, %s %#x", i, aName, a[i], bName, b[i])})
			}
			n++
		}
	}
	if n > maxReports {
		*vs = append(*vs, Violation{kind, fmt.Sprintf(
			"... %d memory words differ in total", n)})
	}
}

// runFunctional executes the case on the pure functional engine and snapshots
// every warp's final state.
func runFunctional(c *Case) (map[int]emu.WarpState, []uint32, error) {
	l, seg, err := c.NewLaunch()
	if err != nil {
		return nil, nil, err
	}
	states := make(map[int]emu.WarpState, c.TotalWarps())
	var grp emu.Group
	for g := 0; g < l.NumWorkgroups; g++ {
		grp.Reset(l, g)
		if err := grp.RunFunctional(); err != nil {
			return nil, nil, err
		}
		for _, w := range grp.Warps {
			var st emu.WarpState
			w.SnapshotInto(&st)
			states[w.GlobalID] = st
		}
	}
	return states, segWords(l.Memory, seg), nil
}

// timingRun captures everything observable about one detailed-mode run.
type timingRun struct {
	res      timing.Result
	states   map[int]emu.WarpState
	issued   map[int]uint64
	retireAt map[int]event.Time
	mem      []uint32
	stats    mem.Stats
	conserv  error
}

// captureObs snapshots warps as they retire; the pooled runtime recycles
// them immediately after the callback, so this is the only safe moment.
type captureObs struct {
	states   map[int]emu.WarpState
	issued   map[int]uint64
	retireAt map[int]event.Time
}

func (o *captureObs) OnInstIssued(now event.Time, cuID int, w *emu.Warp, class isa.FUClass, lat event.Time) {
	if w != nil {
		o.issued[w.GlobalID]++
	}
}

func (o *captureObs) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	// SnapshotInto reuses the slices of any previous snapshot under this
	// warp ID, so steady-state capture does not allocate per retirement.
	st := o.states[w.GlobalID]
	w.SnapshotInto(&st)
	o.states[w.GlobalID] = st
	o.retireAt[w.GlobalID] = now
}

// runTiming executes the case in detailed mode on the given event queue.
func runTiming(c *Case, q event.Queue) (*timingRun, error) {
	l, seg, err := c.NewLaunch()
	if err != nil {
		return nil, err
	}
	compute, hcfg := SmallConfig()
	hier := mem.NewHierarchy(hcfg)
	obs := &captureObs{
		states:   make(map[int]emu.WarpState, c.TotalWarps()),
		issued:   make(map[int]uint64, c.TotalWarps()),
		retireAt: make(map[int]event.Time, c.TotalWarps()),
	}
	m := timing.NewMachineWithQueue(compute, hier,
		timing.Observer{InstIssued: obs.OnInstIssued, WarpRetired: obs.OnWarpRetired}, q)
	res, err := m.Run(l)
	if err != nil {
		return nil, err
	}
	return &timingRun{
		res:      res,
		states:   obs.states,
		issued:   obs.issued,
		retireAt: obs.retireAt,
		mem:      segWords(l.Memory, seg),
		stats:    hier.CollectStats(),
		conserv:  hier.CheckConservation(),
	}, nil
}

// segWords concatenates the input, output and atomic segments into one image
// for comparison. The input segment is included deliberately: generated
// programs never write it, so any change there is itself a bug.
func segWords(m *mem.Flat, seg *Segments) []uint32 {
	out := make([]uint32, 0, seg.InWords+seg.OutWords+seg.AtomicWords)
	out = append(out, m.ReadWords(seg.InBase, seg.InWords)...)
	out = append(out, m.ReadWords(seg.OutBase, seg.OutWords)...)
	out = append(out, m.ReadWords(seg.AtomicBase, seg.AtomicWords)...)
	return out
}
