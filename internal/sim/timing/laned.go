package timing

import (
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"time"

	"photon/internal/obs"
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// This file parallelizes ONE detailed run across compute units with
// conservative time quanta. A LanedMachine partitions the CUs into lanes at
// scalar-block granularity (an L1I/L1K cache is shared per block and must
// not straddle lanes); each lane is a complete Machine with its own event
// queue, warp store and memory-view, switched into laned mode via laneRT.
// Lanes free-run to the quantum boundary Tk — the smallest multiple of
// Δ = Hierarchy.QuantumDelta() at or past the globally earliest pending
// event — on separate goroutines. Anything that crosses lanes (L2/DRAM
// traffic, global atomics, observer callbacks, workgroup dispatch) is
// deferred to the barrier at Tk and replayed there single-threaded in
// (at, cu, per-CU seq) order.
//
// Determinism: the quantum grid depends only on the global minimum pending
// event time (a partition-independent quantity), every barrier-replayed
// order is keyed by partition-invariant sort keys, and within a quantum a
// lane touches nothing outside its own CUs, so results are byte-identical
// for ANY lane count. They are NOT cycle-identical to the serial engine —
// the shared-L2 arbitration order differs — which is why the serial path
// stays the default and serves as the functional differential reference
// (registers, memory images, conservation counters, BBV weights).
//
// Safety of the quantum: an event processed in quantum k fires at
// t ∈ (Tk − Δ, Tk] (Tk is the smallest Δ-multiple ≥ the quantum's earliest
// event). Any shared request it issues reaches the L2 no earlier than t and
// completes no earlier than t + Δ > Tk, so every cross-lane effect resolved
// at the barrier lands strictly in the lanes' future — no event is ever
// scheduled into a lane's past.

// Buffered-observer event kinds.
const (
	evWarpStart uint8 = iota
	evInstIssued
	evBlockRetired
	evWarpRetired
)

// obsEvent is one buffered observer callback. Events are buffered per lane
// during a quantum and replayed merged at the barrier in (at, cu, seq)
// order; memory-op latencies are patched in by the barrier drain before the
// replay runs. The enter field doubles as the block-enter time
// (evBlockRetired) and the warp's first-issue time (evWarpRetired).
type obsEvent struct {
	kind    uint8
	cu      int
	block   int
	at      event.Time
	seq     uint64
	warp    *emu.Warp
	class   isa.FUClass
	latency event.Time
	enter   event.Time
}

// laneRT is the per-lane runtime a Machine carries in laned mode.
type laneRT struct {
	port    *mem.LanePort
	cuLo    int
	obsSeqs []uint64 // per-CU observer sequence, indexed cu-cuLo
	events  []obsEvent
	drained []*groupRT // groups retired this quantum, recycled at the barrier
	noop    func(event.Time)
}

// push appends a buffered observer event, assigning its per-CU sequence
// number, and returns its index for later latency patching. The per-CU
// sequence follows the lane's event order projected onto one CU, which the
// quantum protocol keeps partition-invariant — it is the replay tiebreaker.
func (lr *laneRT) push(ev obsEvent) int {
	i := ev.cu - lr.cuLo
	lr.obsSeqs[i]++
	ev.seq = lr.obsSeqs[i]
	lr.events = append(lr.events, ev)
	return len(lr.events) - 1
}

// noteBlockRetired emits or buffers OnBlockRetired for wc's current block.
func (m *Machine) noteBlockRetired(now event.Time, wc *warpCtx) {
	if lr := m.lane; lr != nil {
		lr.push(obsEvent{kind: evBlockRetired, at: now, cu: wc.cu.id,
			warp: &wc.warp, block: wc.curBlock, enter: wc.curBlockEnter})
		return
	}
	m.obs.OnBlockRetired(now, &wc.warp, wc.curBlock, wc.curBlockEnter, now)
}

// noteWarpRetired emits or buffers OnWarpRetired.
func (m *Machine) noteWarpRetired(now event.Time, wc *warpCtx) {
	if lr := m.lane; lr != nil {
		lr.push(obsEvent{kind: evWarpRetired, at: now, cu: wc.cu.id,
			warp: &wc.warp, enter: wc.issueTime})
		return
	}
	m.obs.OnWarpRetired(now, &wc.warp, wc.issueTime)
}

// memOp is one in-flight vector or atomic operation awaiting its barrier
// completion: it patches the buffered observer latency, folds the completion
// into the warp's memDoneAt, applies deferred atomics, and releases a parked
// s_waitcnt when it is the last outstanding op. Ops are pooled per machine
// and fn is the cached completion closure.
type memOp struct {
	m      *Machine
	wc     *warpCtx
	at     event.Time
	obsIdx int
	class  isa.FUClass
	inst   *isa.Inst // non-nil for a deferred atomic
	addrs  []uint64
	vals   []uint32
	lanes  []uint8
	fn     func(event.Time)
}

func (m *Machine) takeMemOp(wc *warpCtx, now event.Time, obsIdx int, class isa.FUClass) *memOp {
	var op *memOp
	if k := len(m.freeMemOps); k > 0 {
		op = m.freeMemOps[k-1]
		m.freeMemOps = m.freeMemOps[:k-1]
	} else {
		op = &memOp{m: m}
		op.fn = func(done event.Time) { op.m.memOpDone(op, done) }
	}
	op.wc, op.at, op.obsIdx, op.class, op.inst = wc, now, obsIdx, class, nil
	return op
}

// memOpDone completes one vector/atomic op, either synchronously (all lines
// hit the lane's L1V) or at the quantum barrier during the drain.
func (m *Machine) memOpDone(op *memOp, done event.Time) {
	wc := op.wc
	if op.inst != nil {
		// Deferred atomic: perform the read-modify-writes (and old-value
		// register writebacks) now, in the drain's deterministic completion
		// order at the coherence point. Registers may have advanced past the
		// issue — atomics do not block the warp — matching the asynchronous
		// writeback of the modeled hardware.
		wc.warp.ApplyAtomic(op.inst, op.addrs, op.vals, op.lanes)
		op.inst = nil
	}
	lat := done - op.at
	m.lane.events[op.obsIdx].latency = lat
	m.classLatSum[op.class] += uint64(lat)
	if done > wc.memDoneAt {
		wc.memDoneAt = done
	}
	wc.pendMem--
	op.wc = nil
	m.freeMemOps = append(m.freeMemOps, op)
	if wc.pendMem == 0 && wc.waiting {
		wc.waiting = false
		if wc.memDoneAt > wc.waitBase {
			m.stallCycles[wc.cu.id] += uint64(wc.memDoneAt - wc.waitBase)
			if wc.memDoneAt > wc.issueReady {
				wc.issueReady = wc.memDoneAt
			}
		}
		m.finishIssue(wc)
	}
}

// finishIssue retires one readiness contributor of the current instruction;
// the last one schedules the warp's next issue at the folded ready time.
func (m *Machine) finishIssue(wc *warpCtx) {
	wc.issueParts--
	if wc.issueParts == 0 {
		m.warpReadyAt(wc, wc.issueReady)
	}
}

// issueLaned is issue() for laned mode: identical machine arithmetic, but
// memory goes through the lane's port (completing synchronously on lane-L1
// hits and at the quantum barrier otherwise), observer callbacks are
// buffered for the merged replay, and instructions with pending completions
// park on the parts counter instead of knowing their ready time inline.
func (m *Machine) issueLaned(wc *warpCtx, now event.Time) {
	lr := m.lane
	if !wc.started {
		wc.started = true
		wc.issueTime = now
		lr.push(obsEvent{kind: evWarpStart, at: now, cu: wc.cu.id, warp: &wc.warp})
	}
	info := &wc.info
	wc.warp.Step(info)
	m.instCount++

	wc.issueParts = 1
	wc.issueReady = 0

	if info.EnteredB {
		if wc.inBlock {
			m.noteBlockRetired(now, wc)
		}
		wc.inBlock = true
		wc.curBlock = info.BlockIdx
		wc.curBlockEnter = now
		addr := m.progBase + uint64(info.Inst.PC)*8
		// The fetch is charged for its cache side effects in every case; its
		// completion only matters for scheduling when the serial path would
		// fold it in (barrier and endpgm return before that fold).
		if info.Kind == emu.StepBarrier || info.Kind == emu.StepDone {
			lr.port.InstFetch(now, wc.cu.id, addr, lr.noop)
		} else {
			wc.issueParts++
			lr.port.InstFetch(now, wc.cu.id, addr, wc.fetchResolve)
		}
	}

	class := info.Class
	latency := m.cfg.ExecLatency[class]
	ready := now + latency
	s := wc.simd
	s.nextFree = now + m.cfg.IssueOccupancy[class]
	m.issued[wc.cu.id]++
	m.issueCycles[wc.cu.id] += uint64(m.cfg.IssueOccupancy[class])
	m.classIssued[class]++

	switch info.Kind {
	case emu.StepVectorMem:
		idx := lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class})
		op := m.takeMemOp(wc, now, idx, class)
		wc.outstanding++
		wc.pendMem++
		lr.port.VectorAccess(now, wc.cu.id, info.Addrs, info.IsStore, op.fn)
		ready = now + m.cfg.VectorMemIssueCycles
	case emu.StepAtomic:
		idx := lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class})
		op := m.takeMemOp(wc, now, idx, class)
		op.inst = info.Inst
		op.addrs = append(op.addrs[:0], info.Addrs...)
		op.vals = append(op.vals[:0], info.AtomicVals...)
		op.lanes = append(op.lanes[:0], info.AtomicLanes...)
		wc.outstanding++
		wc.pendMem++
		lr.port.AtomicAccess(now, wc.cu.id, op.addrs, op.fn)
		ready = now + m.cfg.VectorMemIssueCycles
	case emu.StepScalarMem:
		idx := lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class})
		wc.scalarIssueAt = now
		wc.scalarObsIdx = idx
		wc.scalarClass = class
		wc.issueParts++
		lr.port.ScalarAccess(now, wc.cu.id, info.SAddr, wc.scalarResolve)
		ready = 0 // blocking: scalarResolve folds the completion time in
	case emu.StepWaitcnt:
		lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class, latency: latency})
		m.classLatSum[class] += uint64(latency)
		if wc.outstanding > int(info.Inst.Offset) {
			wc.outstanding = 0
			if wc.pendMem > 0 {
				// In-flight completion times are unknown until the barrier
				// drain: park the issue on the last resolve, which replays
				// the serial stall arithmetic against the same base.
				wc.waiting = true
				wc.waitBase = ready
				wc.issueParts++
			} else if wc.memDoneAt > ready {
				m.stallCycles[wc.cu.id] += uint64(wc.memDoneAt - ready)
				ready = wc.memDoneAt
			}
		}
	case emu.StepBarrier:
		m.classLatSum[class] += uint64(latency)
		lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class, latency: latency})
		m.arriveBarrier(wc, now)
		return
	case emu.StepDone:
		m.classLatSum[class] += uint64(latency)
		lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class, latency: latency})
		m.retireWarp(wc, now)
		return
	default:
		m.classLatSum[class] += uint64(latency)
		lr.push(obsEvent{kind: evInstIssued, at: now, cu: wc.cu.id, warp: &wc.warp, class: class, latency: latency})
	}

	if ready > wc.issueReady {
		wc.issueReady = ready
	}
	m.finishIssue(wc)
}

// laneState is one lane of a LanedMachine.
type laneState struct {
	id         int
	m          *Machine
	eng        event.Queue
	lr         *laneRT
	cuLo, cuHi int
	cmd        chan event.Time
}

// LanedMachine runs one kernel launch with the detailed model partitioned
// into conservative time-quantum lanes. It implements the same Run surface
// as Machine; the GPU driver selects it when intra-run lanes are requested.
type LanedMachine struct {
	cfg    Config
	hier   *mem.Hierarchy
	obs    Observer
	launch *kernel.Launch

	lanes  []*laneState
	cuLane []int // CU id -> lane index
	ports  []*mem.LanePort

	stopDispatch func() bool
	metrics      *obs.Registry
	log          *obs.Logger
	trace        *obs.TraceBuffer
	tracePID     int
	traceTIDBase int

	nextWG   int
	rrCU     int
	gated    bool
	gateTime event.Time

	quanta    uint64
	busy      []uint64 // per lane: simulated cycles spent firing events
	done      chan struct{}
	replayBuf []obsEvent
}

// NewLanedMachine builds a laned machine with the requested lane count:
// values < 0 mean one lane per available CPU (GOMAXPROCS), and the count is
// clamped to the scalar-block count (the finest legal partition) and floored
// at 1. Even one lane runs the laned engine — that is the degenerate case
// the lane-count-invariance guarantee is anchored to.
func NewLanedMachine(cfg Config, hier *mem.Hierarchy, o Observer, lanes int) *LanedMachine {
	if o == nil {
		o = NopObserver{}
	}
	cpb := hier.Config().CUsPerScalarBlock
	blocks := hier.Config().NumCUs / cpb
	if lanes < 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	if lanes < 1 {
		lanes = 1
	}
	if lanes > blocks {
		lanes = blocks
	}
	lm := &LanedMachine{cfg: cfg, hier: hier, obs: o}
	lm.cuLane = make([]int, cfg.NumCUs)
	lm.busy = make([]uint64, lanes)
	for i := 0; i < lanes; i++ {
		cuLo := i * blocks / lanes * cpb
		cuHi := (i+1)*blocks/lanes*cpb - 1
		mach := NewMachineWithQueue(cfg, hier, NopObserver{}, event.New())
		port := hier.NewLanePort(cuLo, cuHi)
		mach.lane = &laneRT{
			port:    port,
			cuLo:    cuLo,
			obsSeqs: make([]uint64, cuHi-cuLo+1),
			noop:    func(event.Time) {},
		}
		ls := &laneState{id: i, m: mach, eng: mach.engine, lr: mach.lane, cuLo: cuLo, cuHi: cuHi}
		lm.lanes = append(lm.lanes, ls)
		lm.ports = append(lm.ports, port)
		for cu := cuLo; cu <= cuHi; cu++ {
			lm.cuLane[cu] = i
		}
	}
	return lm
}

// NumLanes reports the resolved lane count.
func (lm *LanedMachine) NumLanes() int { return len(lm.lanes) }

// SetStopDispatch installs the per-workgroup dispatch gate. The coordinator
// polls it at quantum barriers, so the gate time is always a barrier time.
func (lm *LanedMachine) SetStopDispatch(f func() bool) { lm.stopDispatch = f }

// SetMetrics attaches a telemetry registry (merged per-CU/per-class tallies
// plus the sim_lane_* series).
func (lm *LanedMachine) SetMetrics(reg *obs.Registry) { lm.metrics = reg }

// SetLog attaches a structured logger.
func (lm *LanedMachine) SetLog(l *obs.Logger) { lm.log = l }

// SetTrace attaches a trace buffer; Run emits one span per lane (thread ids
// tidBase, tidBase+1, …) carrying its busy cycles and the quantum count.
func (lm *LanedMachine) SetTrace(tb *obs.TraceBuffer, pid, tidBase int) {
	lm.trace = tb
	lm.tracePID = pid
	lm.traceTIDBase = tidBase
}

// Run simulates the launch across the lanes until every dispatched
// workgroup drains. Results are identical for any lane count.
func (lm *LanedMachine) Run(l *kernel.Launch) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	if l.WarpsPerGroup > lm.cfg.WarpSlotsPerCU() {
		return Result{}, fmt.Errorf("timing: workgroup of %d warps exceeds CU capacity %d",
			l.WarpsPerGroup, lm.cfg.WarpSlotsPerCU())
	}
	lm.launch = l
	lm.nextWG, lm.rrCU = 0, 0
	lm.gated, lm.gateTime, lm.quanta = false, 0, 0
	for i := range lm.busy {
		lm.busy[i] = 0
	}
	for _, ln := range lm.lanes {
		mach := ln.m
		mach.launch = l
		slots := ResidentWarpSlots(lm.cfg, l)
		if per := (ln.cuHi - ln.cuLo + 1) * lm.cfg.WarpSlotsPerCU(); per < slots {
			slots = per
		}
		mach.store.Configure(l, slots)
		// Each lane executes functionally against its own view of the shared
		// flat memory (private page cache; shared page map under a lock), and
		// captures atomics for the barrier drain instead of applying them.
		mach.store.SetMemView(l.Memory.View())
		mach.store.SetDeferAtomics(true)
		mach.progBase = 1 << 40
		mach.countRoomyCUs(ln.cuLo, ln.cuHi)
	}
	delta := lm.hier.QuantumDelta()
	if delta < 1 {
		delta = 1
	}

	var waitHists []*obs.Histogram
	if lm.metrics != nil {
		bounds := obs.ExpBuckets(1, 2, 16)
		for i := range lm.lanes {
			waitHists = append(waitHists,
				lm.metrics.Histogram("sim_lane_barrier_wait_cycles", bounds, obs.L("lane", strconv.Itoa(i))))
		}
	}

	wallStart := time.Now()
	if len(lm.lanes) > 1 {
		lm.startWorkers()
		defer lm.stopWorkers()
	}
	lm.dispatch(0)
	var tk, prevTk event.Time
	for {
		if tmin, ok := lm.minNextAt(); ok {
			tk = (tmin + delta - 1) / delta * delta
			lm.runLanes(tk)
			for i, ln := range lm.lanes {
				// Busy/wait accounting in simulated cycles: a lane is "busy"
				// from the quantum start to its last fired event, and waits at
				// the barrier for the rest. Deterministic by construction.
				busyEnd := prevTk
				if last := ln.eng.LastAt(); last > busyEnd {
					busyEnd = last
				}
				if busyEnd > tk {
					busyEnd = tk
				}
				lm.busy[i] += uint64(busyEnd - prevTk)
				if waitHists != nil {
					waitHists[i].Observe(float64(tk - busyEnd))
				}
			}
		} else if !lm.barrierWork() {
			break
		}
		lm.barrier(tk)
		lm.quanta++
		prevTk = tk
	}

	var res Result
	live := 0
	for _, ln := range lm.lanes {
		res.InstCount += ln.m.instCount
		res.WarpsSimulated += ln.m.warpsDone
		live += ln.m.liveGroups
		// LastAt is immune to the barrier clock advances, so the merged end
		// time is the true last event time for any lane count.
		if t := ln.eng.LastAt(); t > res.EndTime {
			res.EndTime = t
		}
	}
	res.Complete = lm.nextWG >= l.NumWorkgroups
	res.NextWG = lm.nextWG
	res.GateTime = res.EndTime
	if lm.gated {
		res.GateTime = lm.gateTime
	}
	lm.flushMetrics()
	lm.hier.FlushLaneTelemetry(lm.ports)
	lm.emitTrace(wallStart)
	if live != 0 {
		return res, fmt.Errorf("timing: %s: %d workgroups still live after drain (deadlock?)",
			l.Name, live)
	}
	if lm.log.Enabled(slog.LevelDebug) {
		lm.log.Debug("laned timing run drained",
			slog.String("kernel", l.Name),
			slog.Int("lanes", len(lm.lanes)),
			slog.Uint64("cycles", uint64(res.EndTime)),
			slog.Uint64("quanta", lm.quanta),
			slog.Uint64("insts", res.InstCount),
			slog.Int("warps", res.WarpsSimulated),
			slog.Bool("complete", res.Complete),
			slog.Bool("gated", lm.gated))
	}
	return res, nil
}

// minNextAt returns the globally earliest pending event time.
func (lm *LanedMachine) minNextAt() (event.Time, bool) {
	var best event.Time
	found := false
	for _, ln := range lm.lanes {
		if at, ok := ln.eng.NextAt(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// barrierWork reports whether a barrier still has deferred work to flush
// even though no lane has a pending event (trailing shared requests,
// unreplayed observer events, or groups awaiting recycling).
func (lm *LanedMachine) barrierWork() bool {
	for _, ln := range lm.lanes {
		if ln.lr.port.PendingRequests() > 0 || len(ln.lr.events) > 0 || len(ln.lr.drained) > 0 {
			return true
		}
	}
	return false
}

// runLanes advances every lane to the quantum boundary tk. With one lane it
// runs inline; otherwise the persistent lane goroutines each run their own
// engine and the channel handshake provides the happens-before edges that
// make the barrier's single-threaded phase race-free.
func (lm *LanedMachine) runLanes(tk event.Time) {
	if len(lm.lanes) == 1 {
		ln := lm.lanes[0]
		ln.eng.RunUntil(tk)
		ln.eng.AdvanceTo(tk)
		return
	}
	for _, ln := range lm.lanes {
		ln.cmd <- tk
	}
	for range lm.lanes {
		<-lm.done
	}
}

func (lm *LanedMachine) startWorkers() {
	lm.done = make(chan struct{}, len(lm.lanes))
	for _, ln := range lm.lanes {
		ln.cmd = make(chan event.Time)
		go func(ln *laneState) {
			for tk := range ln.cmd {
				ln.eng.RunUntil(tk)
				ln.eng.AdvanceTo(tk)
				lm.done <- struct{}{}
			}
		}(ln)
	}
}

func (lm *LanedMachine) stopWorkers() {
	for _, ln := range lm.lanes {
		close(ln.cmd)
		ln.cmd = nil
	}
}

// barrier runs the single-threaded quantum-boundary phase, in an order that
// is load-bearing: (1) drain shared requests — completions patch buffered
// latencies, apply deferred atomics and schedule future readiness events;
// (2) replay the merged observer stream (latencies now final, warp state
// still bound); (3) recycle drained workgroups (nothing references their
// warps anymore); (4) dispatch pending workgroups into the freed slots.
func (lm *LanedMachine) barrier(tk event.Time) {
	lm.hier.DrainLaneRequests(lm.ports)
	lm.replayObs()
	for _, ln := range lm.lanes {
		for _, g := range ln.lr.drained {
			ln.m.recycleGroup(g)
		}
		ln.lr.drained = ln.lr.drained[:0]
	}
	lm.dispatch(tk)
}

// obsEventLess is the (at, cu, seq) replay order. The key is total — seq is
// per-CU unique — so the sorted order is one specific permutation regardless
// of input order or sort stability.
func obsEventLess(a, b *obsEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.cu != b.cu {
		return a.cu < b.cu
	}
	return a.seq < b.seq
}

// obsEventsSorted reports whether buf is already in replay order; a linear
// scan is the precondition for skipping the sort, so skipping can never
// change the replayed order.
func obsEventsSorted(buf []obsEvent) bool {
	for i := 1; i < len(buf); i++ {
		if obsEventLess(&buf[i], &buf[i-1]) {
			return false
		}
	}
	return true
}

// replayObs merges every lane's buffered observer events by (at, cu, seq) —
// a partition-invariant key — and replays them into the real observer. With
// a single lane the lane's own buffer IS the merged stream, so the copy is
// skipped by swapping buffers with the lane; in both shapes the sort runs
// only when a linear scan finds the buffer out of order (a lane's engine
// fires events in time order, so single-lane quanta are usually sorted
// already).
func (lm *LanedMachine) replayObs() {
	var buf []obsEvent
	if len(lm.lanes) == 1 {
		lr := lm.lanes[0].lr
		buf, lr.events = lr.events, lm.replayBuf[:0]
	} else {
		buf = lm.replayBuf[:0]
		for _, ln := range lm.lanes {
			buf = append(buf, ln.lr.events...)
			ln.lr.events = ln.lr.events[:0]
		}
	}
	if len(buf) == 0 {
		lm.replayBuf = buf
		return
	}
	if !obsEventsSorted(buf) {
		sort.Slice(buf, func(i, j int) bool { return obsEventLess(&buf[i], &buf[j]) })
	}
	for i := range buf {
		ev := &buf[i]
		switch ev.kind {
		case evWarpStart:
			lm.obs.OnWarpStart(ev.at, ev.warp)
		case evInstIssued:
			lm.obs.OnInstIssued(ev.at, ev.cu, ev.warp, ev.class, ev.latency)
		case evBlockRetired:
			lm.obs.OnBlockRetired(ev.at, ev.warp, ev.block, ev.enter, ev.at)
		case evWarpRetired:
			lm.obs.OnWarpRetired(ev.at, ev.warp, ev.enter)
		}
		buf[i] = obsEvent{} // release the warp references
	}
	lm.replayBuf = buf[:0]
}

// dispatch places pending workgroups onto free CUs, round-robin across the
// whole GPU exactly like the serial machine, but always at a barrier time.
func (lm *LanedMachine) dispatch(now event.Time) {
	l := lm.launch
	for lm.nextWG < l.NumWorkgroups {
		if lm.stopDispatch != nil && lm.stopDispatch() {
			if !lm.gated {
				lm.gated = true
				lm.gateTime = now
			}
			return
		}
		c, ln := lm.findFreeCU()
		if c == nil {
			return
		}
		ln.m.placeGroup(c, lm.nextWG, now)
		lm.nextWG++
	}
}

func (lm *LanedMachine) findFreeCU() (*cu, *laneState) {
	roomy := 0
	for _, ln := range lm.lanes {
		roomy += ln.m.roomyCUs
	}
	if roomy == 0 {
		return nil, nil
	}
	n := lm.cfg.NumCUs
	for i, id := 0, lm.rrCU; i < n; i++ {
		ln := lm.lanes[lm.cuLane[id]]
		c := ln.m.cus[id]
		if id++; id == n {
			id = 0
		}
		if c.freeSlots >= lm.launch.WarpsPerGroup {
			lm.rrCU = id
			return c, ln
		}
	}
	return nil, nil
}

// flushMetrics publishes the merged per-CU and per-class tallies (the same
// series the serial machine emits — each CU lives in exactly one lane, so
// the merge is a relabeling) plus the lane-level series.
func (lm *LanedMachine) flushMetrics() {
	reg := lm.metrics
	if reg == nil {
		return
	}
	for cu := 0; cu < lm.cfg.NumCUs; cu++ {
		mach := lm.lanes[lm.cuLane[cu]].m
		l := obs.L("cu", strconv.Itoa(cu))
		reg.Counter("sim_cu_issue_cycles", l).Add(mach.issueCycles[cu])
		reg.Counter("sim_cu_insts_issued", l).Add(mach.issued[cu])
		reg.Counter("sim_cu_stall_cycles", l).Add(mach.stallCycles[cu])
		reg.Counter("sim_cu_warps_retired", l).Add(mach.retired[cu])
	}
	var classIssued, classLatSum [isa.FUClassCount]uint64
	for _, ln := range lm.lanes {
		for c := isa.FUClass(0); c < isa.FUClassCount; c++ {
			classIssued[c] += ln.m.classIssued[c]
			classLatSum[c] += ln.m.classLatSum[c]
		}
	}
	for c := isa.FUClass(0); c < isa.FUClassCount; c++ {
		if classIssued[c] == 0 {
			continue
		}
		l := obs.L("class", c.String())
		reg.Counter("sim_fu_insts_issued", l).Add(classIssued[c])
		reg.Counter("sim_fu_latency_cycles_sum", l).Add(classLatSum[c])
	}
	for i := range lm.lanes {
		l := obs.L("lane", strconv.Itoa(i))
		reg.Counter("sim_lane_busy_cycles", l).Add(lm.busy[i])
	}
	reg.Counter("sim_lane_quanta").Add(lm.quanta)
	reg.Gauge("sim_lanes").Set(float64(len(lm.lanes)))
}

// emitTrace writes one Perfetto span per lane onto its own thread track.
func (lm *LanedMachine) emitTrace(start time.Time) {
	if lm.trace == nil {
		return
	}
	d := time.Since(start)
	for i := range lm.lanes {
		tid := lm.traceTIDBase + i
		lm.trace.NameThread(lm.tracePID, tid, "lane "+strconv.Itoa(i))
		lm.trace.Complete(lm.launch.Name, "lane", lm.tracePID, tid, start, d, map[string]any{
			"lane": i, "busy_cycles": lm.busy[i], "quanta": lm.quanta,
		})
	}
}
