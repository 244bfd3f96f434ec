package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
)

// RNG is a deterministic 64-bit PRNG (SplitMix64); every workload's
// synthetic data, the DNNs' included, derives from fixed seeds so runs are
// bit-reproducible.
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float32 returns a value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// log2 returns log2(n), requiring n to be a power of two.
func log2(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("workloads: %d is not a positive power of two", n))
	}
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// emitTID emits the global-thread-id computation into vTID using sScratch:
// tid = globalWarpID*64 + lane.
func emitTID(b *isa.Builder, vTID, sScratch int) {
	b.I(isa.OpSLShl, isa.S(sScratch), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(vTID), isa.V(0), isa.S(sScratch))
}

// emitBoundsGuard masks lanes with vTID >= sN and branches to doneLabel when
// the whole warp is out of range. The original EXEC is saved in mask slot
// maskSlot; the epilogue at doneLabel must restore it.
func emitBoundsGuard(b *isa.Builder, vTID, sN, maskSlot int, doneLabel string) {
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(vTID), isa.S(sN))
	b.I(isa.OpSAndSaveExec, isa.Mask(maskSlot))
	b.Br(isa.OpCBranchExecZ, doneLabel)
}

// emitEpilogue defines doneLabel, restores EXEC from maskSlot and ends the
// program.
func emitEpilogue(b *isa.Builder, maskSlot int, doneLabel string) {
	b.Label(doneLabel)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(maskSlot))
	b.End()
}
