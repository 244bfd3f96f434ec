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

	// Steps names what the emulator's Step reads (emu.Warp.Step).
	Steps Steps
}

// Steps names what a warp's step reads.
type Steps uint8

const (
	// StepValues executes every value over Memory.
	StepValues Steps = iota
	// StepAddresses is set by a caller that reads only a run's timing, on
	// an isa.Program.Independent program only (Validate rejects any
	// other). Step and the functional segment loop then skip the values
	// no timing decision reads and neither read nor write Memory, which may then be nil: the launch
	// has no image.
	StepAddresses
	// StepTape replays each warp's tape: the emulator runs a workgroup
	// functionally over Memory when the detailed run binds its first warp,
	// recording what Step owes the timing machine, and Step then reads
	// that and no register. A functional run of the launch executes
	// values. Its program must have no atomic.
	StepTape
)

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
	if l.Steps == StepAddresses && !l.Program.Independent() {
		return fmt.Errorf("kernel %q: a timing-only run of a program that is not independent", l.Name)
	}
	if l.Memory == nil && l.Steps != StepAddresses {
		return fmt.Errorf("kernel %q: nil memory", l.Name)
	}
	if l.Steps == StepTape && l.Program.HasAtomic() {
		return fmt.Errorf("kernel %q: a replay of a program with an atomic", l.Name)
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
