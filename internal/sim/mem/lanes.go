package mem

import (
	"sort"

	"photon/internal/obs"
	"photon/internal/sim/event"
)

// This file is the memory system's half of the conservative time-quantum
// parallelization of a detailed run (see internal/sim/timing/laned.go for
// the coordinator). The partition invariant: each lane exclusively owns a
// contiguous run of scalar blocks, hence its CUs' L1V caches and the L1I/L1K
// caches those blocks share. Within a quantum a lane accesses only what it
// owns, through a LanePort; everything shared — L2 banks, DRAM, global
// atomics — is recorded as a laneReq and drained by the coordinator at the
// barrier, single-threaded, in (at, cu, seq) order. That order is a
// property of the simulated machine, not of the partition, so any lane
// count replays the identical shared-memory schedule.

// QuantumDelta returns Δ, the conservative quantum length: the minimum
// virtual latency after which a memory operation issued in one lane can
// become visible to another. Every cross-lane interaction goes through the
// L2 coherence point, so the earliest completion of a shared request issued
// at time t is t + L2 hit latency; lanes may therefore free-run Δ cycles
// past a barrier without missing cross-lane effects.
func (h *Hierarchy) QuantumDelta() event.Time { return h.cfg.L2.HitLatency }

// laneReq is one deferred shared-hierarchy access.
type laneReq struct {
	at      event.Time // when the request leaves the lane (L1-miss departure or atomic issue)
	cu      int
	seq     uint64 // per-CU issue order; (at, cu, seq) is the drain sort key
	line    uint64
	write   bool
	atomic  bool
	resolve func(done event.Time) // nil for fire-and-forget writebacks
}

// laneJoin aggregates the completions of one warp-level memory operation
// that split into several line requests; it calls complete once, with the
// slowest line's time. Joins are pooled per port so steady-state issue is
// allocation-free.
type laneJoin struct {
	p        *LanePort
	pending  int
	start    event.Time
	max      event.Time
	shard    *obs.HistogramShard // level latency shard; nil for atomics (L2 observes itself)
	complete func(event.Time)
	resolve  func(event.Time) // cached closure feeding finish
}

func (j *laneJoin) finish(done event.Time) {
	if done > j.max {
		j.max = done
	}
	if j.shard != nil {
		j.shard.Observe(float64(done - j.start))
	}
	j.pending--
	if j.pending == 0 {
		c, m, p := j.complete, j.max, j.p
		j.complete = nil
		p.joins = append(p.joins, j)
		c(m)
	}
}

// LanePort is a lane's gateway into the memory system. It mirrors the
// Hierarchy access surface (vector/atomic/scalar/fetch) in completion-
// callback form: hits in lane-owned L1s complete synchronously with the
// exact serial-path arithmetic, misses and atomics are recorded for the
// barrier drain. A port is owned by one lane goroutine; the coordinator
// touches it only between quanta, with the happens-before edge supplied by
// the lane barrier.
type LanePort struct {
	h          *Hierarchy
	cuLo, cuHi int // inclusive CU range, aligned to scalar blocks

	reqs []laneReq
	seqs []uint64 // per-CU request counters, indexed cu-cuLo

	joins []*laneJoin

	latV, latI, latK *obs.HistogramShard
}

// NewLanePort returns the port for the lane owning CUs [cuLo, cuHi]. The
// range must cover whole scalar blocks — the L1I/L1K caches are shared per
// block and must not straddle lanes.
func (h *Hierarchy) NewLanePort(cuLo, cuHi int) *LanePort {
	if cuLo%h.cfg.CUsPerScalarBlock != 0 || (cuHi+1)%h.cfg.CUsPerScalarBlock != 0 {
		panic("mem: lane CU range must align to scalar blocks")
	}
	return &LanePort{
		h:    h,
		cuLo: cuLo,
		cuHi: cuHi,
		seqs: make([]uint64, cuHi-cuLo+1),
		latV: h.l1v[cuLo].lat.NewShard(),
		latI: h.l1i[cuLo/h.cfg.CUsPerScalarBlock].lat.NewShard(),
		latK: h.l1k[cuLo/h.cfg.CUsPerScalarBlock].lat.NewShard(),
	}
}

func (p *LanePort) record(at event.Time, cu int, line uint64, write, atomic bool, resolve func(event.Time)) {
	i := cu - p.cuLo
	p.seqs[i]++
	p.reqs = append(p.reqs, laneReq{
		at: at, cu: cu, seq: p.seqs[i],
		line: line, write: write, atomic: atomic, resolve: resolve,
	})
}

// access is Cache.Access for a lane-owned L1: the same probe, but a miss
// records its fill (and any victim writeback) for the coordinator to drain
// into the shared L2/DRAM at the next quantum barrier instead of calling
// down. It returns (done, false) for a hit, observed on j's shard, and
// (0, true) when the fill was deferred; j.resolve is then called at the
// barrier with the completion time.
func (p *LanePort) access(c *Cache, now event.Time, lineAddr uint64, write bool, cu int, j *laneJoin) (event.Time, bool) {
	start, hit, wb := c.probe(now, lineAddr, write)
	at := start + c.cfg.HitLatency
	if hit {
		if j.shard != nil {
			j.shard.Observe(float64(at - now))
		}
		return at, false
	}
	if wb != 0 {
		p.record(at, cu, (wb-1)*LineSize, true, false, nil)
	}
	p.record(at, cu, lineAddr, false, false, j.resolve)
	return 0, true
}

func (p *LanePort) getJoin(now event.Time, shard *obs.HistogramShard, complete func(event.Time)) *laneJoin {
	var j *laneJoin
	if n := len(p.joins); n > 0 {
		j = p.joins[n-1]
		p.joins[n-1] = nil
		p.joins = p.joins[:n-1]
	} else {
		j = &laneJoin{p: p}
		j.resolve = j.finish
	}
	j.start, j.max = now, now
	j.shard = shard
	j.complete = complete
	j.pending = 0
	return j
}

// VectorAccess is Hierarchy.VectorAccess in callback form: complete fires
// exactly once with the slowest line's completion time — synchronously when
// every coalesced line hits the lane's L1V, at the quantum barrier
// otherwise.
func (p *LanePort) VectorAccess(now event.Time, cuID int, addrs []uint64, write bool, complete func(event.Time)) {
	h := p.h
	if len(addrs) == 0 {
		complete(now + h.cfg.L1V.HitLatency)
		return
	}
	l1 := &h.l1v[cuID]
	j := p.getJoin(now, p.latV, complete)
	sync := now
	var lines [64]uint64
	for _, la := range lines[:coalesce(addrs, &lines)] {
		done, pend := p.access(l1, now, la, write, cuID, j)
		if pend {
			j.pending++
		} else if done > sync {
			sync = done
		}
	}
	if j.pending == 0 {
		j.complete = nil
		p.joins = append(p.joins, j)
		complete(sync)
		return
	}
	if sync > j.max {
		j.max = sync
	}
}

// AtomicAccess defers every per-lane atomic to the barrier: atomics execute
// at the L2 coherence point, which lanes never touch mid-quantum. The
// request carries write=true and the atomic flag so the drain balances the
// conservation equation exactly like the serial path.
func (p *LanePort) AtomicAccess(now event.Time, cuID int, addrs []uint64, complete func(event.Time)) {
	if len(addrs) == 0 {
		complete(now + p.h.cfg.L2.HitLatency)
		return
	}
	j := p.getJoin(now, nil, complete)
	j.pending = len(addrs)
	for _, a := range addrs {
		p.record(now, cuID, a&^uint64(LineSize-1), true, true, j.resolve)
	}
}

// ScalarAccess is Hierarchy.ScalarAccess in callback form.
func (p *LanePort) ScalarAccess(now event.Time, cuID int, addr uint64, complete func(event.Time)) {
	p.single(&p.h.l1k[cuID/p.h.cfg.CUsPerScalarBlock], p.latK, now, cuID, addr, complete)
}

// InstFetch is Hierarchy.InstFetch in callback form.
func (p *LanePort) InstFetch(now event.Time, cuID int, instAddr uint64, complete func(event.Time)) {
	p.single(&p.h.l1i[cuID/p.h.cfg.CUsPerScalarBlock], p.latI, now, cuID, instAddr, complete)
}

// single performs a one-line access through a block-shared L1.
func (p *LanePort) single(c *Cache, shard *obs.HistogramShard, now event.Time, cuID int, addr uint64, complete func(event.Time)) {
	j := p.getJoin(now, shard, complete)
	j.pending = 1
	done, pend := p.access(c, now, addr&^uint64(LineSize-1), false, cuID, j)
	if !pend {
		j.complete = nil
		p.joins = append(p.joins, j)
		complete(done)
	}
}

// PendingRequests reports how many shared-hierarchy requests await the next
// drain (tests and the coordinator's quantum accounting use it).
func (p *LanePort) PendingRequests() int { return len(p.reqs) }

// laneReqLess is the (at, cu, seq) drain order. The key is total — seq is
// per-CU unique — so the sorted order is one specific permutation regardless
// of input order or sort stability.
func laneReqLess(a, b *laneReq) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.cu != b.cu {
		return a.cu < b.cu
	}
	return a.seq < b.seq
}

// laneReqsSorted reports whether buf is already in drain order; the linear
// scan is the precondition for skipping the sort, so skipping can never
// change the drained order.
func laneReqsSorted(buf []laneReq) bool {
	for i := 1; i < len(buf); i++ {
		if laneReqLess(&buf[i], &buf[i-1]) {
			return false
		}
	}
	return true
}

// DrainLaneRequests replays every port's deferred requests into the shared
// L2/DRAM in (at, cu, seq) order and fires their resolve callbacks with the
// completion times. The sort key is partition-invariant — at and the per-CU
// seq depend only on the simulated machine's event order, which the quantum
// protocol fixes — so any lane count produces the same shared-memory
// schedule, which is the laned engine's determinism argument. A single port
// skips the merge copy, and the sort runs only when a linear scan finds the
// batch out of order; both shortcuts preserve the exact drain order. Must be
// called with all lanes parked (the coordinator owns everything).
func (h *Hierarchy) DrainLaneRequests(ports []*LanePort) {
	var buf []laneReq
	if len(ports) == 1 {
		// Single port: its buffer is already the whole batch — swap it with
		// the drain buffer instead of copying, so anything the resolve
		// callbacks record lands in the port's fresh (detached) slice.
		p := ports[0]
		if len(p.reqs) == 0 {
			return
		}
		buf, p.reqs = p.reqs, h.drainBuf[:0]
	} else {
		total := 0
		for _, p := range ports {
			total += len(p.reqs)
		}
		if total == 0 {
			return
		}
		buf = h.drainBuf[:0]
		for _, p := range ports {
			buf = append(buf, p.reqs...)
			p.reqs = p.reqs[:0]
		}
	}
	if !laneReqsSorted(buf) {
		sort.Slice(buf, func(i, j int) bool { return laneReqLess(&buf[i], &buf[j]) })
	}
	for i := range buf {
		rq := &buf[i]
		if rq.atomic {
			h.atomicAccesses++
		}
		done := bankFor(h.l2, rq.line).Access(rq.at, rq.line, rq.write)
		if rq.resolve != nil {
			rq.resolve(done)
		}
		buf[i] = laneReq{} // release the closure references
	}
	h.drainBuf = buf[:0]
}

// FlushLaneTelemetry folds lane-local telemetry into the attached registry
// after a laned run: each port's L1 latency shards (L2 and DRAM observe
// inline during the barrier drain) and, as after a serial run, the plain
// counters of every level. Call after the final drain.
func (h *Hierarchy) FlushLaneTelemetry(ports []*LanePort) {
	for _, p := range ports {
		blk := p.cuLo / h.cfg.CUsPerScalarBlock
		p.latV.FlushTo(h.l1v[p.cuLo].lat)
		p.latI.FlushTo(h.l1i[blk].lat)
		p.latK.FlushTo(h.l1k[blk].lat)
	}
	h.FlushMetrics()
}
