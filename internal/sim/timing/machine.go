package timing

import (
	"fmt"
	"log/slog"
	"strconv"

	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// Machine simulates one kernel launch in detailed mode. Create a fresh
// Machine per kernel (the event clock starts at zero); the memory hierarchy
// is shared state passed in by the GPU driver.
type Machine struct {
	cfg    Config
	engine *event.Engine
	hier   *mem.Hierarchy
	launch *kernel.Launch
	uops   []isa.MicroOp // the launch's micro-op table, indexed by PC
	obs    Observer

	// stopDispatch, when non-nil, is polled before each workgroup dispatch;
	// returning true stops detailed simulation of further workgroups (the
	// sampling controllers switch modes this way).
	stopDispatch func() bool

	cus        []*cu
	nextWG     int
	liveGroups int
	instCount  uint64
	warpsDone  int
	rrCU       int
	roomyCUs   int // CUs with room for one more workgroup of the current launch
	gated      bool
	gateTime   event.Time

	// store holds every resident warp's architectural state in
	// structure-of-arrays slabs, sized per launch from the grid dimensions
	// (ResidentWarpSlots). A warpCtx holds a slot handle into it; dispatch
	// allocates slots from the store's free list and whole-workgroup
	// retirement releases them, mirroring the runtime-object free lists
	// below. For a launch that replays tapes (kernel.StepTape) the store's
	// Bind records the workgroup functionally instead of resetting
	// registers, and the release of its last slot frees its tapes.
	store emu.WarpStore

	// Free lists for the high-churn per-workgroup runtime objects. A retired
	// workgroup returns its groupRT, warp contexts and LDS backing here; the
	// next dispatch reuses them, so steady-state dispatch allocates nothing.
	// The lists are per-Machine and the parallel harness gives each job its
	// own Machine, so no locking is needed.
	freeWCs    []*warpCtx
	freeGroups []*groupRT
	freeLDS    [][]byte

	// Telemetry. The per-FU-class tallies here and the per-CU ones on cu
	// are plain words bumped on the simulation goroutine — the hot path
	// never touches an atomic — and Run flushes them into the registry (when
	// one is attached via SetMetrics) after the event loop drains.
	metrics     *obs.Registry
	log         *obs.Logger
	classIssued [isa.FUClassCount]uint64
	classLatSum [isa.FUClassCount]uint64
}

type cu struct {
	id        int
	freeSlots int
	simds     []*simdUnit
	rrSIMD    int

	// This run's tallies, on the struct the issue path already holds.
	issueCycles uint64 // cycles the issue ports were occupied
	issued      uint64 // instructions issued
	stallCycles uint64 // cycles warps stalled at s_waitcnt
	retired     uint64 // warps retired
}

type simdUnit struct {
	cu       *cu
	nextFree event.Time
	// Warps waiting for the issue port, FIFO through warpCtx.nextReady.
	readyHead, readyTail *warpCtx
	pumpAt               event.Time    // time of the latest scheduled pump, -1 if none
	pumpFn               event.Handler // cached pump closure, built once in NewMachine
}

type warpCtx struct {
	// warp is the slot handle into the machine's WarpStore; the context
	// embeds it by value so issuing never chases a per-warp heap pointer.
	warp emu.Warp
	cu   *cu
	simd *simdUnit
	grp  *groupRT

	// The machine's own position in the warp's instruction stream. Step
	// executes an instruction together with its private run, so the
	// emulator's PC is ahead of the issue cursor by preExec instructions,
	// which issue takes from the micro-op table without calling it again.
	pc      int
	preExec int32

	nextReady *warpCtx // behind this warp in its SIMD's ready queue

	// readyFn is the cached readiness closure, built once per context; it
	// captures the context itself, so scheduling a readiness event never
	// allocates a new closure.
	readyFn event.Handler

	started     bool
	issueTime   event.Time
	memDoneAt   event.Time
	outstanding int

	curBlock      int
	curBlockEnter event.Time
	inBlock       bool
}

type groupRT struct {
	id        int
	cu        *cu
	warps     []*warpCtx
	lds       []byte // retained for recycling when the group retires
	live      int    // warps not yet retired
	atBarrier int
}

// progBase is the synthetic address instruction fetches are charged at, one
// for every program: the driver resets the hierarchy before each kernel.
const progBase = 1 << 40

// Result reports what one Run simulated in detailed mode: counts of that run
// alone, times on the machine's clock (which a reused machine keeps running).
type Result struct {
	// EndTime is the drain time of the simulated portion (kernel execution
	// time if Complete).
	EndTime event.Time
	// Complete is true when every workgroup was simulated in detail.
	Complete bool
	// NextWG is the first workgroup that was NOT simulated (== NumWorkgroups
	// when Complete).
	NextWG int
	// InstCount is the number of warp instructions issued in detail.
	InstCount uint64
	// WarpsSimulated counts warps that retired in detailed mode.
	WarpsSimulated int
	// GateTime is when the dispatch gate first fired (== EndTime when it
	// never did). Between GateTime and EndTime the machine drained its
	// in-flight workgroups; prediction models backfill into that window.
	GateTime event.Time
	// ClassIssued and ClassLatSum tally, per functional-unit class, the
	// instructions issued in detail and the sum of their latencies in
	// cycles — the online instruction latency table of the paper's Figure 9
	// (Photon's interval model divides one by the other).
	ClassIssued [isa.FUClassCount]uint64
	ClassLatSum [isa.FUClassCount]uint64
}

// NewMachine builds a detailed-mode machine over the given hierarchy.
func NewMachine(cfg Config, hier *mem.Hierarchy, obs Observer) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.NumCUs != hier.Config().NumCUs {
		panic(fmt.Sprintf("timing: CU count %d != hierarchy CU count %d",
			cfg.NumCUs, hier.Config().NumCUs))
	}
	m := &Machine{cfg: cfg, engine: event.New(), hier: hier, obs: obs}
	m.cus = make([]*cu, cfg.NumCUs)
	for i := range m.cus {
		c := &cu{id: i, freeSlots: cfg.WarpSlotsPerCU()}
		c.simds = make([]*simdUnit, cfg.SIMDsPerCU)
		for j := range c.simds {
			s := &simdUnit{cu: c, pumpAt: -1}
			s.pumpFn = func(t event.Time) { m.pump(s, t) }
			c.simds[j] = s
		}
		m.cus[i] = c
	}
	return m
}

// SetStopDispatch installs the per-workgroup dispatch gate.
func (m *Machine) SetStopDispatch(f func() bool) { m.stopDispatch = f }

// SetMetrics attaches a telemetry registry; Run flushes per-CU issue,
// stall and retire tallies plus per-FU-class issue counts and latency sums
// into it when the run drains.
func (m *Machine) SetMetrics(reg *obs.Registry) { m.metrics = reg }

// SetLog attaches a structured logger; Run emits one Debug record when the
// event loop drains, summarizing the run (cycles, instructions, warps,
// whether the dispatch gate fired).
func (m *Machine) SetLog(l *obs.Logger) { m.log = l }

// flushMetrics publishes the run's tallies (Run zeroes them before it
// starts). Counters aggregate across kernels and across machines sharing one
// registry; the sums are deterministic because the simulation itself is.
func (m *Machine) flushMetrics() {
	reg := m.metrics
	if reg == nil {
		return
	}
	for _, c := range m.cus {
		l := obs.L("cu", strconv.Itoa(c.id))
		reg.Counter("sim_cu_issue_cycles", l).Add(c.issueCycles)
		reg.Counter("sim_cu_insts_issued", l).Add(c.issued)
		reg.Counter("sim_cu_stall_cycles", l).Add(c.stallCycles)
		reg.Counter("sim_cu_warps_retired", l).Add(c.retired)
	}
	for c := isa.FUClass(0); c < isa.FUClassCount; c++ {
		if m.classIssued[c] == 0 {
			continue
		}
		l := obs.L("class", c.String())
		reg.Counter("sim_fu_insts_issued", l).Add(m.classIssued[c])
		reg.Counter("sim_fu_latency_cycles_sum", l).Add(m.classLatSum[c])
	}
}

// Run simulates the launch until every dispatched workgroup drains. If the
// dispatch gate stops new workgroups, the in-flight ones still complete.
func (m *Machine) Run(l *kernel.Launch) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	if l.WarpsPerGroup > m.cfg.WarpSlotsPerCU() {
		return Result{}, fmt.Errorf("timing: workgroup of %d warps exceeds CU capacity %d",
			l.WarpsPerGroup, m.cfg.WarpSlotsPerCU())
	}
	m.launch = l
	m.uops = l.Program.MicroOps()
	// Size the warp store from the grid dimensions: enough slots for every
	// warp that can be architecturally resident at once, but never more
	// than the launch itself needs. The bound is exact, so the store never
	// runs out.
	m.store.Configure(l, ResidentWarpSlots(m.cfg, l))
	m.nextWG, m.instCount, m.warpsDone, m.gated = 0, 0, 0, false
	m.classIssued, m.classLatSum = [isa.FUClassCount]uint64{}, [isa.FUClassCount]uint64{}
	for _, c := range m.cus {
		c.issueCycles, c.issued, c.stallCycles, c.retired = 0, 0, 0, 0
	}
	m.countRoomyCUs()
	m.dispatchPending(0)
	m.engine.Run()
	m.flushMetrics()
	m.hier.FlushMetrics()
	res := Result{
		EndTime:        m.engine.Now(),
		Complete:       m.nextWG >= l.NumWorkgroups,
		NextWG:         m.nextWG,
		InstCount:      m.instCount,
		WarpsSimulated: m.warpsDone,
		GateTime:       m.engine.Now(),
		ClassIssued:    m.classIssued,
		ClassLatSum:    m.classLatSum,
	}
	if m.gated {
		res.GateTime = m.gateTime
	}
	if m.liveGroups != 0 {
		return res, fmt.Errorf("timing: %s: %d workgroups still live after drain (deadlock?)",
			l.Name, m.liveGroups)
	}
	if m.log.Enabled(slog.LevelDebug) {
		m.log.Debug("timing run drained",
			slog.String("kernel", l.Name),
			slog.Uint64("cycles", uint64(res.EndTime)),
			slog.Uint64("insts", res.InstCount),
			slog.Int("warps", res.WarpsSimulated),
			slog.Bool("complete", res.Complete),
			slog.Bool("gated", m.gated))
	}
	return res, nil
}

// dispatchPending places as many pending workgroups as fit on the CUs.
func (m *Machine) dispatchPending(now event.Time) {
	for m.nextWG < m.launch.NumWorkgroups {
		if m.stopDispatch != nil && m.stopDispatch() {
			if !m.gated {
				m.gated = true
				m.gateTime = now
			}
			return
		}
		c := m.findFreeCU()
		if c == nil {
			return
		}
		m.placeGroup(c, m.nextWG, now)
		m.nextWG++
	}
}

// countRoomyCUs sets roomyCUs from every CU's free slots; placeGroup and
// recycleGroup keep it current from there.
func (m *Machine) countRoomyCUs() {
	m.roomyCUs = 0
	for _, c := range m.cus {
		if c.freeSlots >= m.launch.WarpsPerGroup {
			m.roomyCUs++
		}
	}
}

// findFreeCU returns the first CU at or after the round-robin cursor with
// room for a workgroup and moves the cursor past it. Every retirement asks,
// and the usual answer on a full machine is "none": that costs one compare.
func (m *Machine) findFreeCU() *cu {
	if m.roomyCUs == 0 {
		return nil
	}
	for i, id := 0, m.rrCU; i < len(m.cus); i++ {
		c := m.cus[id]
		if id++; id == len(m.cus) {
			id = 0
		}
		if c.freeSlots >= m.launch.WarpsPerGroup {
			m.rrCU = id
			return c
		}
	}
	return nil
}

func (m *Machine) placeGroup(c *cu, wgID int, now event.Time) {
	c.freeSlots -= m.launch.WarpsPerGroup
	if c.freeSlots < m.launch.WarpsPerGroup {
		m.roomyCUs--
	}
	m.liveGroups++
	grp := m.takeGroup()
	grp.id = wgID
	grp.cu = c
	grp.live = m.launch.WarpsPerGroup
	grp.atBarrier = 0
	grp.lds = m.takeLDS(m.launch.Program.LDSBytes)
	for i := 0; i < m.launch.WarpsPerGroup; i++ {
		wc := m.takeWarpCtx()
		gid := wgID*m.launch.WarpsPerGroup + i
		wc.warp = m.store.Bind(m.store.Alloc(), gid, grp.lds)
		wc.cu = c
		wc.grp = grp
		wc.simd = c.simds[c.rrSIMD]
		c.rrSIMD = (c.rrSIMD + 1) % len(c.simds)
		grp.warps = append(grp.warps, wc)
		m.warpReadyAt(wc, now+m.cfg.DispatchLatency)
	}
}

// takeGroup pops a recycled groupRT or makes a fresh one.
func (m *Machine) takeGroup() *groupRT {
	if k := len(m.freeGroups); k > 0 {
		g := m.freeGroups[k-1]
		m.freeGroups = m.freeGroups[:k-1]
		return g
	}
	return &groupRT{}
}

// takeLDS returns a zeroed LDS backing of n bytes, reusing a recycled one
// when it is large enough.
func (m *Machine) takeLDS(n int) []byte {
	if n == 0 {
		return nil
	}
	if k := len(m.freeLDS); k > 0 {
		lds := m.freeLDS[k-1]
		m.freeLDS = m.freeLDS[:k-1]
		if cap(lds) >= n {
			lds = lds[:n]
			clear(lds)
			return lds
		}
	}
	return make([]byte, n)
}

// takeWarpCtx pops a recycled warp context or makes a fresh one with its
// readiness closure pre-built.
func (m *Machine) takeWarpCtx() *warpCtx {
	if k := len(m.freeWCs); k > 0 {
		wc := m.freeWCs[k-1]
		m.freeWCs = m.freeWCs[:k-1]
		wc.started = false
		wc.preExec = 0
		wc.issueTime = 0
		wc.memDoneAt = 0
		wc.outstanding = 0
		wc.curBlock = 0
		wc.curBlockEnter = 0
		wc.inBlock = false
		return wc
	}
	wc := &warpCtx{}
	wc.readyFn = func(now event.Time) { m.warpReady(wc, now) }
	return wc
}

// warpReadyAt makes the warp ready to issue on its SIMD at time t.
func (m *Machine) warpReadyAt(wc *warpCtx, t event.Time) {
	m.engine.Schedule(t, wc.readyFn)
}

// warpReady is the readiness event. A warp that finds its SIMD's queue empty
// and the port free issues inside it; otherwise it queues behind the port.
func (m *Machine) warpReady(wc *warpCtx, now event.Time) {
	s := wc.simd
	if s.readyHead == nil {
		if s.nextFree <= now {
			m.issue(wc, now)
			return
		}
		s.readyHead = wc
	} else {
		s.readyTail.nextReady = wc
	}
	s.readyTail = wc
	m.pump(s, now)
}

// pump issues from the SIMD's non-empty ready queue, respecting the
// one-issue-per-occupancy-window port limit.
func (m *Machine) pump(s *simdUnit, now event.Time) {
	if s.nextFree > now {
		if s.pumpAt != s.nextFree {
			s.pumpAt = s.nextFree
			m.engine.Schedule(s.nextFree, s.pumpFn)
		}
		return
	}
	wc := s.readyHead
	s.readyHead, wc.nextReady = wc.nextReady, nil
	m.issue(wc, now)
	if s.readyHead != nil && s.pumpAt != s.nextFree {
		s.pumpAt = s.nextFree
		m.engine.Schedule(s.nextFree, s.pumpFn)
	}
}

// issue issues the warp's next instruction and schedules its next readiness.
// Everything the timing model needs of an instruction but its addresses is a
// static fact of its micro-op, so the emulator is called only when the warp
// has no pre-executed instruction left: once per private run. Step returns
// the addresses; a run holds no memory instruction, so a pre-executed one
// needs none.
func (m *Machine) issue(wc *warpCtx, now event.Time) {
	if !wc.started {
		wc.started = true
		wc.issueTime = now
		if f := m.obs.WarpStart; f != nil {
			f(now, &wc.warp)
		}
	}
	// A block head is never inside a private run, so block entry — the
	// BlockRetired callback, which therefore sees the warp exactly between
	// the two blocks, and the instruction fetch — is on the Step side only.
	var u *isa.MicroOp
	var addrs []uint64
	var fetchDone event.Time
	if wc.preExec > 0 {
		wc.preExec--
		wc.pc++
		u = &m.uops[wc.pc]
	} else {
		wc.pc = wc.warp.PC()
		u = &m.uops[wc.pc]
		if u.Head {
			fetchDone = m.enterBlock(wc, u, now)
		}
		addrs = wc.warp.Step()
		wc.preExec = u.Run
	}
	m.instCount++
	c := wc.cu

	class := u.Class
	ready := now + m.cfg.ExecLatency[class]
	latency := m.cfg.ExecLatency[class]
	wc.simd.nextFree = now + m.cfg.IssueOccupancy[class]
	c.issued++
	c.issueCycles += uint64(m.cfg.IssueOccupancy[class])
	m.classIssued[class]++

	switch u.Step {
	case isa.StepVectorMem:
		done := m.hier.VectorAccess(now, c.id, addrs, u.Store)
		latency = done - now
		wc.outstanding++
		if done > wc.memDoneAt {
			wc.memDoneAt = done
		}
		ready = now + m.cfg.VectorMemIssueCycles
	case isa.StepAtomic:
		done := m.hier.AtomicAccess(now, c.id, addrs)
		latency = done - now
		wc.outstanding++
		if done > wc.memDoneAt {
			wc.memDoneAt = done
		}
		ready = now + m.cfg.VectorMemIssueCycles
	case isa.StepScalarMem:
		done := m.hier.ScalarAccess(now, c.id, addrs[0])
		latency = done - now
		ready = done // blocking scalar load
	case isa.StepWaitcnt:
		if wc.outstanding > int(u.Offset) {
			wc.outstanding = 0
			if wc.memDoneAt > ready {
				c.stallCycles += uint64(wc.memDoneAt - ready)
				ready = wc.memDoneAt
			}
		}
	}
	m.classLatSum[class] += uint64(latency)
	if f := m.obs.InstIssued; f != nil {
		f(now, c.id, &wc.warp, class, latency)
	}

	switch u.Step {
	case isa.StepBarrier:
		m.arriveBarrier(wc, now)
	case isa.StepDone:
		m.retireWarp(wc, now)
	default:
		if fetchDone > ready {
			ready = fetchDone
		}
		m.warpReadyAt(wc, ready)
	}
}

// enterBlock does the basic-block accounting of the head instruction at the
// warp's issue cursor: a block's execution interval spans from the issue of
// its first instruction to the issue of the next block's first instruction
// (paper, Observation 3). It charges an I-cache fetch once per block entry and
// returns when that is done; the delay extends the head instruction's
// effective completion.
func (m *Machine) enterBlock(wc *warpCtx, head *isa.MicroOp, now event.Time) event.Time {
	if f := m.obs.BlockRetired; f != nil && wc.inBlock {
		f(now, &wc.warp, wc.curBlock, wc.curBlockEnter, now)
	}
	wc.inBlock = true
	wc.curBlock = int(head.Block)
	wc.curBlockEnter = now
	return m.hier.InstFetch(now, wc.cu.id, progBase+uint64(wc.pc)*8)
}

func (m *Machine) arriveBarrier(wc *warpCtx, now event.Time) {
	g := wc.grp
	if g.atBarrier++; g.atBarrier >= g.live {
		m.releaseBarrier(g, now)
	}
}

// releaseBarrier resumes the group's warps that wait at its barrier.
func (m *Machine) releaseBarrier(g *groupRT, now event.Time) {
	g.atBarrier = 0
	for _, sib := range g.warps {
		if !sib.warp.Done() && sib.warp.AtBarrier() {
			sib.warp.ClearBarrier()
			m.warpReadyAt(sib, now+m.cfg.BarrierLatency)
		}
	}
}

func (m *Machine) retireWarp(wc *warpCtx, now event.Time) {
	if f := m.obs.BlockRetired; f != nil && wc.inBlock {
		f(now, &wc.warp, wc.curBlock, wc.curBlockEnter, now)
	}
	if f := m.obs.WarpRetired; f != nil {
		f(now, &wc.warp, wc.issueTime)
	}
	m.warpsDone++
	wc.cu.retired++
	g := wc.grp
	g.live--
	if g.live > 0 {
		// A retired warp no longer participates in barriers; release
		// siblings if it was the last one missing.
		if g.atBarrier >= g.live && g.atBarrier > 0 {
			m.releaseBarrier(g, now)
		}
		return
	}
	m.recycleGroup(g)
	m.dispatchPending(now)
}

// recycleGroup frees a drained workgroup's slots and recycles its runtime
// objects. No observer retains warp pointers past its callback (they read
// fields synchronously), so reuse is safe. Store slots are released only
// here, never at individual warp retirement: the barrier logic above still
// reads retired siblings' Done/AtBarrier state, so their slots must stay
// bound until the whole group drains.
func (m *Machine) recycleGroup(g *groupRT) {
	for _, sib := range g.warps {
		m.store.Release(sib.warp.Slot())
	}
	m.freeWCs = append(m.freeWCs, g.warps...)
	g.warps = g.warps[:0]
	if g.lds != nil {
		m.freeLDS = append(m.freeLDS, g.lds)
		g.lds = nil
	}
	m.freeGroups = append(m.freeGroups, g)
	if g.cu.freeSlots < m.launch.WarpsPerGroup {
		m.roomyCUs++
	}
	g.cu.freeSlots += m.launch.WarpsPerGroup
	m.liveGroups--
}
