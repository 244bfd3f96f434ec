package core

import (
	"slices"

	"photon/internal/sim/gpu"
	"photon/internal/sim/kernel"
	"photon/internal/sim/timing"
)

// MachineShape is what the scheduler-only model needs to know about the GPU:
// how many workgroups can be resident at once. Warp-sampling "only simulates
// the scheduler" (Section 4.2); this greedy list-scheduler is that model.
type MachineShape struct {
	NumCUs        int
	WarpSlotsPer  int // warp slots per CU
	WarpsPerGroup int
}

// ShapeOf is the shape of g's machine running l's workgroups.
func ShapeOf(g *gpu.GPU, l *kernel.Launch) MachineShape {
	c := g.Config().Compute
	return MachineShape{NumCUs: c.NumCUs, WarpSlotsPer: c.WarpSlotsPerCU(), WarpsPerGroup: l.WarpsPerGroup}
}

// GroupServers returns how many workgroups can be resident simultaneously.
func (s MachineShape) GroupServers() int {
	perCU := s.WarpSlotsPer / s.WarpsPerGroup
	if perCU < 1 {
		perCU = 1
	}
	return perCU * s.NumCUs
}

// slotHeap is a min-heap of the times at which the machine's group slots
// next fall free. The list scheduler only ever takes the earliest slot and
// gives it back with a later time, so the one operation is replace-top
// (place): no boxing, and one sift instead of a pop and a push.
type slotHeap []float64

// rampSlots returns the heap of slot-free times along the dispatch ramp.
// rampEnd >= rampStart makes the times ascending, which is already heap
// order.
func rampSlots(rampStart, rampEnd float64, shape MachineShape) slotHeap {
	h := make(slotHeap, shape.GroupServers())
	for i := range h {
		h[i] = rampStart + (rampEnd-rampStart)*float64(i)/float64(len(h))
	}
	return h
}

// place runs a group of duration d on the earliest-free slot and returns
// its completion time, which becomes that slot's next free time.
func (h slotHeap) place(d float64) float64 {
	v := h[0] + d
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < v) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
	return v
}

// makespan list-schedules count workgroups — group i, in dispatch order,
// lasting duration(i) — onto the machine's group slots and returns the
// completion time of the last one. Slots become available along a linear
// ramp from rampStart (when the dispatch gate fired) to rampEnd (when the
// detailed model finished draining the in-flight workgroups): in a real run
// the skipped workgroups would have backfilled slots as the drain released
// them, and the ramp models exactly that.
func makespan(rampStart, rampEnd float64, count int, duration func(int) float64, shape MachineShape) float64 {
	if count <= 0 {
		return rampEnd
	}
	if rampEnd < rampStart {
		rampEnd = rampStart
	}
	h := rampSlots(rampStart, rampEnd, shape)
	end := rampEnd
	for i := 0; i < count; i++ {
		if done := h.place(duration(i)); done > end {
			end = done
		}
	}
	return end
}

// PredictMakespan is the makespan of the remaining workgroups given their
// predicted durations, in dispatch order.
func PredictMakespan(rampStart, rampEnd float64, groupDurations []float64, shape MachineShape) float64 {
	return makespan(rampStart, rampEnd, len(groupDurations),
		func(i int) float64 { return groupDurations[i] }, shape)
}

// uniformMakespan is makespan for count groups of one duration d, without
// the heap. Slot i's free times are then t_i, t_i+d, t_i+d+d, … (repeated
// addition, as place adds), every chain ascends, and float addition is
// monotone, so the list scheduler starts its groups at the count smallest
// of those times in ascending order: the makespan is max(rampEnd, v+d) for
// v the count-th smallest. The ramp ascends in i, so chain i lies below
// chain i+1 element by element. Hence fewer than count times lie below
// lo = c_0(q) and at least count lie at or below hi = c_{n-1}(q), for
// q = (count-1)/n: v is in [lo, hi], found by sorting the times in that
// window. A chain crosses the window in about 1 + (t_{n-1}-t_0)/d steps, so
// when the ramp is much longer than d, or d adds nothing, the heap is
// cheaper and makespan answers.
func uniformMakespan(rampStart, rampEnd, d float64, count int, shape MachineShape) float64 {
	if count <= 0 {
		return rampEnd
	}
	if rampEnd < rampStart {
		rampEnd = rampStart
	}
	heap := func() float64 {
		return makespan(rampStart, rampEnd, count, func(int) float64 { return d }, shape)
	}
	t := rampSlots(rampStart, rampEnd, shape)
	n := len(t)
	if !(d > 0) || !(t[n-1]-t[0] <= 8*d) {
		return heap()
	}
	q := (count - 1) / n
	lo, hi := t[0], t[n-1]
	for range q {
		lo, hi = lo+d, hi+d
	}
	below := 0
	window := make([]float64, 0, 2*n)
	for _, v := range t {
		for ; v <= hi; v += d {
			if v < lo {
				below++
			} else {
				window = append(window, v)
			}
			if v+d == v {
				return heap()
			}
		}
	}
	slices.Sort(window)
	if end := window[count-1-below] + d; end > rampEnd {
		return end
	}
	return rampEnd
}

// PredictRemainder completes a detailed run of l on g that stopped dispatch
// at its gate (res) with the scheduler-only model: every workgroup it never
// dispatched lasts groupTime cycles, backfilled from the gate to the drain,
// and each of its warps executes meanWarpInsts instructions. None of them
// ran, so the result, of tier mode, is Stale. Warp-sampling and TBPoint
// both predict the remainder this way.
func PredictRemainder(g *gpu.GPU, l *kernel.Launch, res timing.Result, groupTime, meanWarpInsts float64, mode string) gpu.KernelResult {
	remaining := l.NumWorkgroups - res.NextWG
	end := uniformMakespan(float64(res.GateTime), float64(res.EndTime), groupTime, remaining, ShapeOf(g, l))
	skipped := float64(remaining*l.WarpsPerGroup) * meanWarpInsts
	return gpu.KernelResult{
		SimTime:       EventTime(end),
		Insts:         res.InstCount + uint64(skipped),
		DetailedInsts: res.InstCount,
		Mode:          mode,
		Stale:         true,
	}
}
