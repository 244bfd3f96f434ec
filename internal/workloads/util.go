package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
)

// RNG is a deterministic 64-bit PRNG (SplitMix64); every workload's
// synthetic data, the DNNs' included, derives from fixed seeds so runs are
// bit-reproducible. Its state is a counter, so a Check can regenerate any
// input value from the seed without a host copy of the input.
type RNG struct{ s uint64 }

const golden = 0x9e3779b97f4a7c15 // SplitMix64's state increment

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// rngAt returns the generator seeded with seed that has already yielded i
// values.
func rngAt(seed uint64, i int) *RNG {
	r := NewRNG(seed)
	r.Skip(i)
	return r
}

// mix is SplitMix64's output function of a state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a draw to [0, 1) with 24 bits of precision.
func unit(v uint64) float32 { return float32(int32(v>>40)) / (1 << 24) }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.s += golden
	return mix(r.s)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float32 returns a value in [0, 1).
func (r *RNG) Float32() float32 { return unit(r.Uint64()) }

// Skip advances the generator past n values, as n calls would.
func (r *RNG) Skip(n int) { r.s += uint64(n) * golden }

// Float32s sets dst[i] to (x+off)*scale, where x runs over the values of
// len(dst) successive Float32 calls. The state stays in a register for the
// whole chunk, and the builder's transform rides in the same loop: every
// input the builders draw is one of these maps, and float32 evaluates each
// of them exactly as the builders' own expressions (x*2-1 is (x-0.5)*2
// because both steps are exact on 24-bit values in [0, 1)).
func (r *RNG) Float32s(dst []float32, off, scale float32) {
	s := r.s
	for i := range dst {
		s += golden
		dst[i] = (unit(mix(s)) + off) * scale
	}
	r.s = s
}

// Uint32s sets dst to the low halves of len(dst) successive Uint64 calls.
func (r *RNG) Uint32s(dst []uint32) {
	s := r.s
	for i := range dst {
		s += golden
		dst[i] = uint32(mix(s))
	}
	r.s = s
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
