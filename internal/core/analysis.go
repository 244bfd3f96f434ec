// Package core implements Photon, the paper's contribution: a three-tier
// sampled-simulation methodology (basic-block-, warp- and kernel-sampling)
// that requires no up-front profiling. Each kernel launch is first analyzed
// online by functionally simulating a small sample of warps (Section 4,
// Figures 7/10/12, step 1); the resulting profile drives kernel-sampling
// (GPU BBV matching) and arms the per-level stability detectors used during
// detailed simulation. When a level's criterion fires, Photon stops
// dispatching workgroups to the detailed model and predicts the remainder.
package core

import (
	"fmt"

	"photon/internal/core/bbv"
	"photon/internal/sim/emu"
	"photon/internal/sim/kernel"
)

// Profile is the result of the online pre-analysis: warp-type and
// basic-block distributions from a functional sample of warps.
type Profile struct {
	SampledWarps int
	SampledInsts uint64
	// Types maps warp-type ID to its aggregate profile.
	Types map[uint64]*bbv.TypeProfile
	// BlockInsts maps a block index (of the launch's program) to the
	// instructions its executions contributed in the sample.
	BlockInsts []uint64
	// GPU is the kernel's GPU BBV (Figure 5).
	GPU bbv.GPUBBV
	// MeanWarpInsts is the expected dynamic instruction count per warp.
	MeanWarpInsts float64
}

// AnalyzeOnline functionally simulates ~fraction of the launch's warps
// (sampled at workgroup granularity, spread evenly across the grid; the paper
// uses 1%) and summarizes their behavior, leaving the image as it was. A
// profile reads only control flow, so an independent program's sample runs
// timing-only (kernel.StepAddresses) over no image at all. Any other
// program's runs on a Fork of the image, which is dropped; Fork writes the
// parent's ownership bits, so never analyze one image of such a program
// from two goroutines.
func AnalyzeOnline(l *kernel.Launch, fraction float64) (*Profile, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	sample := *l
	if l.Program.Independent() {
		sample.Memory, sample.Steps = nil, kernel.StepAddresses
	} else {
		sample.Memory = l.Memory.Fork()
	}
	return analyze(&sample, fraction)
}

// analyze profiles ~fraction of l's warps, run functionally over l's own
// image, which the caller made a dropped fork or none.
func analyze(l *kernel.Launch, fraction float64) (*Profile, error) {
	numWG := l.NumWorkgroups
	sampleWGs := int(float64(numWG)*fraction + 0.5)
	if sampleWGs < 1 {
		sampleWGs = 1
	}
	if sampleWGs > numWG {
		sampleWGs = numWG
	}
	stride := numWG / sampleWGs

	p := &Profile{
		Types:      make(map[uint64]*bbv.TypeProfile),
		BlockInsts: make([]uint64, l.Program.NumBlocks()),
	}
	var grp emu.Group
	for i := 0; i < sampleWGs; i++ {
		grp.Reset(l, i*stride)
		if err := grp.RunFunctional(); err != nil {
			return nil, fmt.Errorf("core: online analysis of %s: %w", l.Name, err)
		}
		for _, w := range grp.Warps {
			p.SampledWarps++
			p.SampledInsts += w.InstCount()
			id := bbv.TypeID(l.Program, w.BBCounts())
			tp, ok := p.Types[id]
			if !ok {
				tp = &bbv.TypeProfile{
					ID:     id,
					Insts:  w.InstCount(),
					Vector: bbv.FromCounts(l.Program, w.BBCounts()),
				}
				p.Types[id] = tp
			}
			tp.Count++
			for bi, c := range w.BBCounts() {
				p.BlockInsts[bi] += uint64(c) * uint64(l.Program.Blocks[bi].Len)
			}
		}
	}
	types := make([]bbv.TypeProfile, 0, len(p.Types))
	for _, tp := range p.Types {
		types = append(types, *tp)
	}
	p.GPU = bbv.BuildGPU(types)
	if p.SampledWarps > 0 {
		p.MeanWarpInsts = float64(p.SampledInsts) / float64(p.SampledWarps)
	}
	return p, nil
}

// BlockShare returns each block's fraction of sampled instructions.
func (p *Profile) BlockShare() []float64 {
	out := make([]float64, len(p.BlockInsts))
	if p.SampledInsts == 0 {
		return out
	}
	for i, v := range p.BlockInsts {
		out[i] = float64(v) / float64(p.SampledInsts)
	}
	return out
}

// WarpTypeShare returns the share of sampled warps in each type, keyed by
// type ID.
func (p *Profile) WarpTypeShare() map[uint64]float64 {
	out := make(map[uint64]float64, len(p.Types))
	if p.SampledWarps == 0 {
		return out
	}
	for id, tp := range p.Types {
		out[id] = float64(tp.Count) / float64(p.SampledWarps)
	}
	return out
}
