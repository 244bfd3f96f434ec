package emu

import (
	"fmt"

	"photon/internal/sim/kernel"
)

// Group owns the warps of one workgroup plus their shared local data share,
// and can run them functionally (no timing) while respecting barriers:
// every warp runs to the next barrier (a "segment"), then all resume. The
// warps live in the group's own WarpStore, bound to consecutive slots, so a
// functional run sweeps one contiguous slab region. Photon's online
// analysis and every fast-forward path step workgroups through one recycled
// Group.
type Group struct {
	Launch *kernel.Launch
	ID     int
	Warps  []*Warp
	LDS    []byte

	store WarpStore
	back  []Warp
}

// Reset points the group at workgroup groupID, reusing the LDS backing and
// the store's register slabs when possible. The sampling loops run many
// workgroups of a kernel through one recycled Group, so steady-state
// functional execution does not allocate.
func (g *Group) Reset(l *kernel.Launch, groupID int) {
	g.Launch = l
	g.ID = groupID
	if n := l.Program.LDSBytes; n > 0 {
		if cap(g.LDS) < n {
			g.LDS = make([]byte, n)
		} else {
			g.LDS = g.LDS[:n]
			clear(g.LDS)
		}
	} else {
		g.LDS = nil
	}
	wpg := l.WarpsPerGroup
	g.store.Configure(l, wpg)
	if cap(g.back) < wpg {
		g.back = make([]Warp, wpg)
	}
	g.back = g.back[:wpg]
	for i := range g.back {
		g.back[i] = g.store.Bind(i, groupID*wpg+i, g.LDS)
	}
	// Rebuild the pointer view unconditionally: the backing slice may have
	// moved, and the capacity is reused so this does not allocate in steady
	// state.
	g.Warps = g.Warps[:0]
	for i := range g.back {
		g.Warps = append(g.Warps, &g.back[i])
	}
}

// RunFunctional executes every warp of the group to completion with no
// timing model, alternating between warps at barrier boundaries so that LDS
// producer/consumer patterns (tile loads before a barrier, reads after) stay
// functionally correct.
func (g *Group) RunFunctional() error {
	return runWarpsFunctional(g.Launch, g.ID, g.back)
}

// RunRange runs workgroups [first, first+count) of the launch functionally
// through this group, recycling it per workgroup. Workgroups execute
// strictly in ascending ID order: cross-workgroup atomics make global-memory
// ordering observable. After each workgroup completes, visit (when non-nil)
// receives its warps, valid only during the callback.
func (g *Group) RunRange(l *kernel.Launch, first, count int, visit func(warps []*Warp)) error {
	for wg := first; wg < first+count; wg++ {
		g.Reset(l, wg)
		if err := g.RunFunctional(); err != nil {
			return err
		}
		if visit != nil {
			visit(g.Warps)
		}
	}
	return nil
}

// RunKernelFunctional runs every workgroup of the launch functionally and
// returns the total dynamic instruction count. It is the reference
// functional execution used by tests and by full fast-forward mode.
func RunKernelFunctional(l *kernel.Launch) (insts uint64, err error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	var grp Group
	err = grp.RunRange(l, 0, l.NumWorkgroups, func(warps []*Warp) {
		for _, w := range warps {
			insts += w.InstCount()
		}
	})
	return insts, err
}

// runWarpsFunctional runs the sibling warps of workgroup groupID to
// completion with barrier alternation. warps is the contiguous slice of
// handles for the workgroup.
func runWarpsFunctional(l *kernel.Launch, groupID int, warps []Warp) error {
	for {
		allDone := true
		anyAtBarrier := false
		for i := range warps {
			w := &warps[i]
			if w.Done() {
				continue
			}
			allDone = false
			w.runSegment() // until barrier or completion
			if w.AtBarrier() {
				anyAtBarrier = true
			}
		}
		if allDone {
			return nil
		}
		if anyAtBarrier {
			// All live warps must be at the barrier together.
			for i := range warps {
				w := &warps[i]
				if !w.Done() && !w.AtBarrier() {
					return fmt.Errorf("emu: %s group %d: warp %d missed a barrier",
						l.Name, groupID, w.GlobalID)
				}
			}
			for i := range warps {
				warps[i].ClearBarrier()
			}
		}
	}
}
