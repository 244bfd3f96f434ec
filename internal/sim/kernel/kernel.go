// Package kernel defines how a compiled program plus a grid of work becomes
// a set of warps, mirroring the GPU execution model the paper assumes: a
// kernel launch creates workgroups, each workgroup is a fixed number of
// 64-lane warps, and workgroups are dispatched to compute units.
package kernel

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/mem"
)

// WavefrontSize is the number of lanes per warp (64, as on AMD GPUs).
const WavefrontSize = isa.WavefrontSize

// Launch describes one kernel invocation.
type Launch struct {
	// Name identifies the kernel for reporting and for kernel-level
	// sampling bookkeeping (the paper's inter-kernel methods use it only as
	// a label; matching is done on GPU BBVs).
	Name    string
	Program *isa.Program
	Memory  *mem.Flat

	// NumWorkgroups and WarpsPerGroup define the grid. Total warps =
	// NumWorkgroups * WarpsPerGroup; lanes beyond the problem size are
	// masked off by the kernel code itself (bounds checks), as in real
	// OpenCL kernels.
	NumWorkgroups int
	WarpsPerGroup int

	// Args is loaded into scalar registers starting at ArgSGPRBase when a
	// warp initializes (pointers, sizes, scalar constants).
	Args []uint32
}

// ArgSGPRBase is the first scalar register holding kernel arguments.
// Registers s0..s3 carry the dispatch IDs (see emu.WarpStore.Bind).
const ArgSGPRBase = 8

// TotalWarps returns the warp count of the launch.
func (l *Launch) TotalWarps() int { return l.NumWorkgroups * l.WarpsPerGroup }

// Validate checks the launch for consistency.
func (l *Launch) Validate() error {
	if l.Program == nil {
		return fmt.Errorf("kernel %q: nil program", l.Name)
	}
	if l.Memory == nil {
		return fmt.Errorf("kernel %q: nil memory", l.Name)
	}
	if l.NumWorkgroups <= 0 || l.WarpsPerGroup <= 0 {
		return fmt.Errorf("kernel %q: grid %dx%d must be positive",
			l.Name, l.NumWorkgroups, l.WarpsPerGroup)
	}
	if l.Program.NumSRegs > ArgSGPRBase+len(l.Args)+64 {
		// Generous sanity bound; real misuse is caught by the emulator.
		return fmt.Errorf("kernel %q: program wants %d sregs", l.Name, l.Program.NumSRegs)
	}
	return nil
}
