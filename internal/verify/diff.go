package verify

import (
	"fmt"
	"slices"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
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
//     flow equations hold;
//   - for an independent program (isa.Program.Independent), a timing-only
//     run (kernel.StepAddresses) over no image vs the detailed run: the
//     same end time, instruction count and stream of issues and
//     retirements, and no memory read or written, which would panic;
//   - for a program without atomics, a replayed run (kernel.StepTape),
//     which records each workgroup on the image as it binds it, vs the
//     detailed run: the same end time, instruction count, stream of issues
//     and retirements, per-warp instruction and BB counts, cache and DRAM
//     counters, and image.
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
	tr, err := runTiming(c, executed)
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
	if prog.Independent() {
		diffTimingOnly(fail, c, tr)
	}
	if !prog.HasAtomic() {
		diffReplayed(fail, c, tr)
	}
	return vs
}

// diffReplayed runs the case replaying the tapes it records and holds it
// to the detailed run tr: the replay reads from the tapes exactly what the
// executed run's steps returned, so the two runs issue, retire, count and
// access the hierarchy identically, and the recording leaves the image. A
// panic, the recording's or the replay's, is the leg's violation.
func diffReplayed(fail func(kind, format string, args ...any), c *Case, tr *timingRun) {
	rr, err := func() (rr *timingRun, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		return runTiming(c, replayed)
	}()
	if err != nil {
		fail("replay", "%v", err)
		return
	}
	if rr.res.EndTime != tr.res.EndTime || rr.res.InstCount != tr.res.InstCount {
		fail("replay", "end time %d, %d instructions; the detailed run %d, %d",
			rr.res.EndTime, rr.res.InstCount, tr.res.EndTime, tr.res.InstCount)
	}
	if i := firstStreamDiff(rr.stream, tr.stream); i >= 0 {
		fail("replay", "event %d of %d: %s; the detailed run: %s (of %d)",
			i, len(rr.stream), eventAt(rr.stream, i), eventAt(tr.stream, i), len(tr.stream))
	}
	for id, st := range tr.states {
		r := rr.states[id]
		if r.InstCount != st.InstCount || !slices.Equal(r.BBCounts, st.BBCounts) {
			fail("replay", "warp %d: %d instructions, BB counts %v; the detailed run %d, %v",
				id, r.InstCount, r.BBCounts, st.InstCount, st.BBCounts)
		}
	}
	if rr.stats != tr.stats {
		fail("replay", "hierarchy counters %+v; the detailed run %+v", rr.stats, tr.stats)
	}
	if rr.conserv != nil {
		fail("replay", "%v", rr.conserv)
	}
	if !slices.Equal(rr.mem, tr.mem) {
		fail("replay", "the recording left an image that differs from the detailed run's")
	}
}

// eventAt formats event i of s, or its end.
func eventAt(s []streamEvent, i int) string {
	if i < len(s) {
		return fmt.Sprintf("%+v", s[i])
	}
	return "end of stream"
}

// diffTimingOnly runs the case timing-only over no image and holds it to
// the detailed run tr: every timing decision reads only what the run still
// computes, so the two runs issue and retire identically, and the run
// reads and writes no memory: an access to the missing image panics, which
// is reported as the leg's violation.
func diffTimingOnly(fail func(kind, format string, args ...any), c *Case, tr *timingRun) {
	to, err := func() (to *timingRun, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		return runTiming(c, timingOnly)
	}()
	if err != nil {
		fail("timing-only", "%v", err)
		return
	}
	if to.res.EndTime != tr.res.EndTime || to.res.InstCount != tr.res.InstCount {
		fail("timing-only", "end time %d, %d instructions; the detailed run %d, %d",
			to.res.EndTime, to.res.InstCount, tr.res.EndTime, tr.res.InstCount)
	}
	if i := firstStreamDiff(to.stream, tr.stream); i >= 0 {
		fail("timing-only", "event %d of %d: %s; the detailed run: %s (of %d)",
			i, len(to.stream), eventAt(to.stream, i), eventAt(tr.stream, i), len(tr.stream))
	}
}

// firstStreamDiff returns the index of the first event where a and b
// differ, or -1 when they are equal.
func firstStreamDiff(a, b []streamEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
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
	stream  []streamEvent
	mem     []uint32
	stats   mem.Stats
	conserv error
}

// leg is how runTiming runs a case's detailed simulation.
type leg int

const (
	executed   leg = iota // over the image, executing values
	timingOnly            // timing-only over no image
	replayed              // over the image, replaying the tapes it records on it
)

// streamEvent is one issue (Retired false) or retirement the timing model
// reported: for an issue, the CU, FU class and latency; for a retirement,
// the warp's first issue time in Latency.
type streamEvent struct {
	Now     event.Time
	Warp    int
	CU      int
	Class   isa.FUClass
	Latency event.Time
	Retired bool
}

// captureObs snapshots warps as they retire; the pooled runtime recycles
// them immediately after the callback, so this is the only safe moment.
type captureObs struct {
	states map[int]emu.WarpState
	issued map[int]uint64
	stream []streamEvent
}

func (o *captureObs) OnInstIssued(now event.Time, cuID int, w *emu.Warp, class isa.FUClass, lat event.Time) {
	if w != nil {
		o.issued[w.GlobalID]++
		o.stream = append(o.stream, streamEvent{Now: now, Warp: w.GlobalID, CU: cuID, Class: class, Latency: lat})
	}
}

func (o *captureObs) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	o.stream = append(o.stream, streamEvent{Now: now, Warp: w.GlobalID, Latency: issue, Retired: true})
	// SnapshotInto reuses the slices of any previous snapshot under this
	// warp ID, so steady-state capture does not allocate per retirement.
	st := o.states[w.GlobalID]
	w.SnapshotInto(&st)
	o.states[w.GlobalID] = st
}

// runTiming executes the case in detailed mode as leg says. A timing-only
// run leaves the run's mem nil; a replayed one's is the image its
// recording left.
func runTiming(c *Case, leg leg) (*timingRun, error) {
	l, seg, err := c.NewLaunch()
	if err != nil {
		return nil, err
	}
	image := l.Memory
	compute, hcfg := SmallConfig()
	switch leg {
	case timingOnly:
		l.Steps, l.Memory, image = kernel.StepAddresses, nil, nil
	case replayed:
		l.Steps = kernel.StepTape
	}
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
	run := &timingRun{
		res:     res,
		states:  obs.states,
		issued:  obs.issued,
		stream:  obs.stream,
		stats:   hier.CollectStats(),
		conserv: hier.CheckConservation(),
	}
	if image != nil {
		run.mem = segWords(image, seg)
	}
	return run, nil
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
