package timing

import (
	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
)

// Observer is the set of timing events a run subscribes to, one func field
// per event; a nil field is not subscribed, and the machine pays one nil
// test for it (the zero Observer costs a run nothing). All callbacks run
// synchronously on the simulation goroutine, and the warp handle is valid
// only for the duration of the call.
//
// What a callback may read through the handle: the machine executes a warp
// one private run at a time (isa.MicroOp.Run) and issues the run's
// instructions one by one, so the architectural state behind *emu.Warp —
// registers, EXEC/VCC/SCC, PC, InstCount — is exact at WarpStart,
// BlockRetired and WarpRetired (everything issued before now has executed,
// nothing else has; at BlockRetired the block just left is complete and the
// one being entered not begun), and inside InstIssued it may be ahead of the
// issued instruction by at most the rest of the current run. BBCounts is
// exact in all four: no block head lies inside a run.
type Observer struct {
	// WarpStart fires when a warp issues its first instruction.
	WarpStart func(now event.Time, w *emu.Warp)
	// WarpRetired fires when a warp executes s_endpgm. issue is the
	// warp's first-issue time (the paper's warp issue/retired pair).
	WarpRetired func(now event.Time, w *emu.Warp, issue event.Time)
	// InstIssued fires for every dynamic instruction. latency is the
	// modeled completion latency (for memory ops: the full round trip).
	InstIssued func(now event.Time, cuID int, w *emu.Warp, class isa.FUClass, latency event.Time)
	// BlockRetired fires when a warp leaves a basic block: the paper's
	// basic-block execution interval [enter, exit) — from the issue of the
	// block's first instruction to the issue of the next block's first
	// instruction (or warp completion).
	BlockRetired func(now event.Time, w *emu.Warp, blockIdx int, enter, exit event.Time)
}
