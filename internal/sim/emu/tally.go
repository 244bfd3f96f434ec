package emu

import "photon/internal/sim/kernel"

// Tally is what a functional run of consecutive workgroups left in their
// warps: each warp's instruction count and BB counts, in dispatch order.
// Photon's bb-sampling predicts the workgroups after its gate from one,
// whether it ran them itself or a functional pass beside the detailed
// prefix did.
type Tally struct {
	first, groups int // the workgroups [first, first+groups) tallied
	wpg, blocks   int
	insts         []uint64 // per warp
	bb            []uint32 // per warp, blocks entries each
}

// Record runs workgroups [first, first+count) of l functionally, through
// RunRange, and tallies every warp. stop, when non-nil, is polled after
// each workgroup, and the run ends early, without error, once it returns
// true. On an error the tally holds the workgroups before the failing one,
// so End names it.
func (t *Tally) Record(l *kernel.Launch, first, count int, stop func() bool) error {
	wpg, blocks := l.WarpsPerGroup, l.Program.NumBlocks()
	*t = Tally{first: first, wpg: wpg, blocks: blocks,
		insts: make([]uint64, 0, count*wpg), bb: make([]uint32, 0, count*wpg*blocks)}
	var g Group
	return g.RunRange(l, first, count, func(warps []*Warp) bool {
		for _, w := range warps {
			t.insts = append(t.insts, w.InstCount())
			t.bb = append(t.bb, w.BBCounts()...)
		}
		t.groups++
		return stop == nil || !stop()
	})
}

// End returns the workgroup after the last one tallied.
func (t *Tally) End() int { return t.first + t.groups }

// Warp returns the instruction count and BB counts of warp i of workgroup
// wg, which the tally holds. The counts alias the tally.
func (t *Tally) Warp(wg, i int) (insts uint64, bb []uint32) {
	k := (wg-t.first)*t.wpg + i
	return t.insts[k], t.bb[k*t.blocks : (k+1)*t.blocks]
}
