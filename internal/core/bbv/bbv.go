// Package bbv implements the paper's feature vectors: per-warp Basic Block
// Vectors projected to a fixed dimensionality, warp typing (two warps are
// the same type iff they executed identical block sequences, i.e. have
// identical raw BBVs), and the GPU BBV of Figure 5 — the weighted,
// weight-ordered concatenation of the per-type projected BBVs that
// characterizes a whole kernel for kernel-sampling.
package bbv

import (
	"math"
	"sort"
	"sync"

	"photon/internal/sim/isa"
)

// Dim is the projected BBV dimensionality; the paper uses 16.
const Dim = 16

// Vector is a projected, instruction-weighted basic-block vector.
type Vector [Dim]float64

// FNV-1a constants, spelled out so the hot paths can hash inline instead of
// going through hash/fnv (whose New64a allocates). The byte order below
// matches what the hash/fnv-based implementation wrote, so the sums — and
// everything derived from them (slots, type IDs, sampling decisions) — are
// bit-identical to earlier revisions.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU64 folds the 8 little-endian bytes of v into an FNV-1a sum.
func fnvU64(sum, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		sum = (sum ^ (v >> i & 0xff)) * fnvPrime64
	}
	return sum
}

// fnvU32 folds the 4 little-endian bytes of v into an FNV-1a sum.
func fnvU32(sum uint64, v uint32) uint64 {
	for i := 0; i < 32; i += 8 {
		sum = (sum ^ uint64(v>>i&0xff)) * fnvPrime64
	}
	return sum
}

// slotsOf maps a basic block to two independent projection slots; its
// weight is split between them. The hash mixes the program's fingerprint so
// equal (startPC, len) blocks of different programs do not collide. Two
// slots matter because many GPU kernels are dominated by a single loop-body
// block: with one slot such "single-spike" BBVs from unrelated programs
// collide with probability 1/Dim, which is high enough to cause false
// kernel-sampling matches; requiring both slots to coincide drops that to
// ~1/Dim².
func slotsOf(progFP uint64, key isa.BlockKey) (int, int) {
	sum := fnvU64(uint64(fnvOffset64), progFP)
	sum = fnvU64(sum, uint64(key.StartPC)<<20|uint64(key.Len))
	return int(sum % Dim), int((sum >> 32) % Dim)
}

// slotPair is a block's two projection slots, precomputed per program.
type slotPair struct{ a, b uint8 }

// slotCache memoizes the per-block slot pairs keyed by program fingerprint
// (programs with equal fingerprints have identical block structure, so the
// table is shared). Concurrent jobs in the parallel harness consult it from
// different goroutines.
var slotCache sync.Map // uint64 -> []slotPair

func slotsFor(prog *isa.Program) []slotPair {
	if v, ok := slotCache.Load(prog.Fingerprint); ok {
		return v.([]slotPair)
	}
	t := make([]slotPair, prog.NumBlocks())
	for i, blk := range prog.Blocks {
		s1, s2 := slotsOf(prog.Fingerprint, blk.Key())
		t[i] = slotPair{uint8(s1), uint8(s2)}
	}
	v, _ := slotCache.LoadOrStore(prog.Fingerprint, t)
	return v.([]slotPair)
}

// FromCounts builds the projected BBV of one warp from its per-block entry
// counts, weighting each block by executed instructions (count × block
// length) and normalizing to sum 1. After the program's slot table is built
// once, the accumulation is allocation-free.
func FromCounts(prog *isa.Program, counts []uint32) Vector {
	var v Vector
	slots := slotsFor(prog)
	total := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		w := float64(c) * float64(prog.Blocks[i].Len)
		s := slots[i]
		v[s.a] += w / 2
		v[s.b] += w / 2
		total += w
	}
	if total > 0 {
		for i := range v {
			v[i] /= total
		}
	}
	return v
}

// TypeID identifies the warp's type: warps with identical dynamic BBVs (same
// raw counts in the same program) share an ID.
func TypeID(prog *isa.Program, counts []uint32) uint64 {
	sum := fnvU64(uint64(fnvOffset64), prog.Fingerprint)
	for _, c := range counts {
		sum = fnvU32(sum, c)
	}
	return sum
}

// MaxTypes caps how many warp types contribute to a GPU BBV: BuildGPU keeps
// the MaxTypes heaviest and drops the rest, weight included, which is why a
// GPUBBV's entries sum to at most 1. (The paper tracks "the last 1024
// warps"; a cap serves the same bounded-state purpose.)
const MaxTypes = 16

// GPUBBV characterizes one kernel invocation (Figure 5): the per-type BBVs,
// weighted by each type's share of warps and ordered by descending weight.
type GPUBBV struct {
	// Vec is the concatenation of weight-scaled projected BBVs, at most
	// MaxTypes*Dim long; its entries sum to <= 1.
	Vec []float64
	// Types is the number of distinct warp types observed.
	Types int
	// DominantShare is the weight of the most frequent type.
	DominantShare float64
}

// TypeProfile summarizes one warp type from the online analysis.
type TypeProfile struct {
	ID     uint64
	Count  int
	Insts  uint64 // instructions per warp of this type
	Vector Vector
}

// BuildGPU assembles the GPU BBV from the sampled warp types.
func BuildGPU(types []TypeProfile) GPUBBV {
	total := 0
	for _, t := range types {
		total += t.Count
	}
	if total == 0 {
		return GPUBBV{}
	}
	sorted := make([]TypeProfile, len(types))
	copy(sorted, types)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return sorted[i].ID < sorted[j].ID // deterministic tie-break
	})
	g := GPUBBV{Types: len(types)}
	g.DominantShare = float64(sorted[0].Count) / float64(total)
	k := len(sorted)
	if k > MaxTypes {
		k = MaxTypes
	}
	g.Vec = make([]float64, 0, k*Dim)
	for i := 0; i < k; i++ {
		w := float64(sorted[i].Count) / float64(total)
		for _, x := range sorted[i].Vector {
			g.Vec = append(g.Vec, w*x)
		}
	}
	return g
}

// Distance is the L1 (Manhattan) distance between two GPU BBVs, treating
// missing tail entries as zero. Both vectors sum to at most 1, so the
// distance lies in [0, 2].
func Distance(a, b GPUBBV) float64 {
	n := len(a.Vec)
	if len(b.Vec) > n {
		n = len(b.Vec)
	}
	d := 0.0
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a.Vec) {
			av = a.Vec[i]
		}
		if i < len(b.Vec) {
			bv = b.Vec[i]
		}
		d += math.Abs(av - bv)
	}
	return d
}
