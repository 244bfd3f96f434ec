package workloads

import (
	"fmt"
	"strings"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// Histogram is an extension workload beyond the paper's Table 2 (whose
// MGPUSim base lacked atomics): every thread reads one input value and
// atomically increments its bin. The skewed value distribution concentrates
// contention on a few hot bins, exercising the serialized atomic path in the
// timing model while keeping a single warp type (the BBV is data-
// independent), which makes it an interesting case for warp-sampling.

const histBins = 256

// histogramProgram: bins[data[i]]++ for i < n.
// Args: s8=data, s9=bins, s10=n.
func histogramProgram() *isa.Program {
	b := isa.NewBuilder("histogram")
	emitTID(b, 1, 4)
	emitBoundsGuard(b, 1, 10, 0, "done")
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
	b.Load(isa.OpVLoad, isa.V(4), isa.V(3), 0)
	b.Waitcnt(0)
	b.I(isa.OpVLShl, isa.V(5), isa.V(4), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(5), isa.V(5), isa.S(9))
	b.I(isa.OpVAtomicAdd, isa.Operand{}, isa.V(5), isa.Imm(1))
	b.Waitcnt(0)
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// BuildHistogram constructs the histogram workload at the given problem
// size in warps.
func BuildHistogram(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("histogram: warps must be positive")
	}
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	data := m.Alloc(uint64(4 * n))
	bins := m.Alloc(4 * histBins)

	// Each value takes two draws: the first picks a hot bin (half the values
	// land in 8 hot bins) or any bin, the second which one. Both are taken
	// modulo powers of two, so the low halves of the draws decide them.
	rng := NewRNG(0x415)
	var want [histBins]uint32
	var draws []uint32
	m.FillWords(data, n, func(c []uint32) {
		if cap(draws) < 2*len(c) {
			draws = make([]uint32, 2*len(c))
		}
		d := draws[:2*len(c)]
		rng.Uint32s(d)
		for i := range c {
			pick, bin := d[2*i], d[2*i+1]
			v := bin % histBins
			if pick%2 == 0 {
				v = bin % 8 * 32
			}
			c[i] = v
			want[v]++
		}
	})

	l := &kernel.Launch{
		Name:          "histogram",
		Program:       histogramProgram(),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args:          []uint32{uint32(data), uint32(bins), uint32(n)},
	}
	app := &App{Name: "Histogram", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		for b := 0; b < histBins; b++ {
			if got := m.Read32(bins + uint64(4*b)); got != want[b] {
				return fmt.Errorf("histogram: bin %d = %d, want %d", b, got, want[b])
			}
		}
		return nil
	}
	return app, nil
}

// Extensions lists workloads beyond the paper's Table 2; they exercise the
// atomic instructions this repository adds over the paper's MGPUSim base.
func Extensions() []Spec {
	return []Spec{
		{
			Abbr: "HIST", Suite: "extension", Description: "Histogram (atomic adds, contended bins)",
			Sizes: []int{4096, 16384},
			Build: BuildHistogram,
		},
		{
			Abbr: "KMEANS", Suite: "extension", Description: "KMeans clustering (atomic float adds, 4 kernels/iter)",
			Sizes: []int{1024, 4096},
			Build: BuildKMeans,
		},
		{
			Abbr: "BFS", Suite: "extension", Description: "Breadth-first search (atomic min, kernel per level)",
			Sizes: []int{1024, 4096},
			Build: BuildBFS,
		},
		{
			Abbr: "REDUCE", Suite: "extension", Description: "Multi-pass tree reduction (LDS, 8 barriers/group)",
			Sizes: []int{4096, 16384},
			Build: BuildReduction,
		},
	}
}

// FindExtension returns an extension workload by abbreviation.
func FindExtension(abbr string) (Spec, error) {
	for _, s := range Extensions() {
		if strings.EqualFold(s.Abbr, abbr) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown extension %q", abbr)
}
