package verify

import (
	"fmt"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

// RunCase runs the case through the functional emulator and the detailed
// timing model and returns all invariant violations found (empty means the
// case passes):
//
//   - the functional emulator vs the detailed timing model: per-warp final
//     architectural state (registers, EXEC/VCC/SCC, mask slots, PC, BBVs)
//     and the full contents of all three memory segments must match;
//   - conservation: per-warp issued == retired instruction count, the sum of
//     per-warp counts == the machine's total, BBV-weighted block lengths ==
//     the instruction count, every warp retires, and the cache hierarchy's
//     flow equations hold.
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
	tr, err := runTiming(c)
	if err != nil {
		fail("timing", "%v", err)
		return vs
	}

	total := c.TotalWarps()

	// Completeness and conserved counters on the timing run.
	if !tr.res.Complete {
		fail("conservation", "timing run incomplete: nextWG %d of %d",
			tr.res.NextWG, c.NumWorkgroups)
	}
	if tr.res.WarpsSimulated != total {
		fail("conservation", "warps simulated %d != launched %d", tr.res.WarpsSimulated, total)
	}
	if len(tr.states) != total {
		fail("conservation", "%d warps retired, want %d", len(tr.states), total)
	}
	var sum uint64
	for id, st := range tr.states {
		sum += st.InstCount
		if got := tr.issued[id]; got != st.InstCount {
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
	if sum != tr.res.InstCount {
		fail("conservation", "per-warp instruction counts sum to %d, machine reports %d",
			sum, tr.res.InstCount)
	}
	if tr.conserv != nil {
		fail("conservation", "%v", tr.conserv)
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
		ts, tok := tr.states[id]
		if !fok || !tok {
			fail("diff", "warp %d missing (functional retired: %v, timing retired: %v)", id, fok, tok)
			continue
		}
		if d := fs.Diff(&ts); d != "" {
			fail("diff", "warp %d final state differs (functional vs timing):\n%s", id, d)
		}
	}
	diffMemory(fail, fmem, tr.mem)
	return vs
}

// diffMemory compares the functional and timing memory images word by word,
// reporting the first few mismatches.
func diffMemory(fail func(kind, format string, args ...any), f, t []uint32) {
	if len(f) != len(t) {
		fail("diff", "memory image sizes differ: functional %d words, timing %d", len(f), len(t))
		return
	}
	const maxReports = 8
	n := 0
	for i := range f {
		if f[i] != t[i] {
			if n < maxReports {
				fail("diff", "memory word %d: functional %#x, timing %#x", i, f[i], t[i])
			}
			n++
		}
	}
	if n > maxReports {
		fail("diff", "... %d memory words differ in total", n)
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

// timingRun captures what the checks read of one detailed-mode run.
type timingRun struct {
	res     timing.Result
	states  map[int]emu.WarpState
	issued  map[int]uint64
	mem     []uint32
	conserv error
}

// captureObs snapshots warps as they retire; the pooled runtime recycles
// them immediately after the callback, so this is the only safe moment.
type captureObs struct {
	states map[int]emu.WarpState
	issued map[int]uint64
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
}

// runTiming executes the case in detailed mode.
func runTiming(c *Case) (*timingRun, error) {
	l, seg, err := c.NewLaunch()
	if err != nil {
		return nil, err
	}
	compute, hcfg := SmallConfig()
	hier := mem.NewHierarchy(hcfg)
	obs := &captureObs{
		states: make(map[int]emu.WarpState, c.TotalWarps()),
		issued: make(map[int]uint64, c.TotalWarps()),
	}
	m := timing.NewMachine(compute, hier,
		timing.Observer{InstIssued: obs.OnInstIssued, WarpRetired: obs.OnWarpRetired})
	res, err := m.Run(l)
	if err != nil {
		return nil, err
	}
	return &timingRun{
		res:     res,
		states:  obs.states,
		issued:  obs.issued,
		mem:     segWords(l.Memory, seg),
		conserv: hier.CheckConservation(),
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
