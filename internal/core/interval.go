package core

import (
	"photon/internal/sim/isa"
	"photon/internal/sim/timing"
)

// Rare basic blocks (Figure 9): blocks that fire too rarely during the
// detailed phase to accumulate a stable least-squares window. Photon
// predicts their runtime with an interval model that walks the block's
// instructions using the per-class latency tallies the timing machine keeps
// during detailed simulation; classes never observed fall back to the
// machine's configured latencies ("we set their initial value according to
// the latency of caches and ALUs").

// LatencyModel provides the per-class latency estimate for the interval
// model.
type LatencyModel struct {
	lat [isa.FUClassCount]float64
}

// NewLatencyModel builds a model from a detailed run's per-class tallies:
// the mean observed latency where the class issued at all, otherwise a
// fallback derived from the compute configuration plus a default memory
// round-trip estimate. The zero Result yields the fallbacks alone.
func NewLatencyModel(res timing.Result, cfg timing.Config, defaultMemLatency float64) *LatencyModel {
	m := &LatencyModel{}
	for c := isa.FUClass(0); c < isa.FUClassCount; c++ {
		switch {
		case res.ClassIssued[c] > 0:
			m.lat[c] = float64(res.ClassLatSum[c]) / float64(res.ClassIssued[c])
		case c == isa.FUVectorMem || c == isa.FUScalarMem:
			m.lat[c] = defaultMemLatency
		default:
			m.lat[c] = float64(cfg.ExecLatency[c])
		}
	}
	return m
}

// Latency returns the modeled latency for a class.
func (m *LatencyModel) Latency(c isa.FUClass) float64 { return m.lat[c] }

// EstimateBlockTime predicts one execution of a basic block with the
// interval model, mirroring the in-order pipeline: ALU-class instructions
// advance time by their latency; vector memory issues asynchronously and
// completes at issue + memory latency; s_waitcnt joins outstanding memory.
// Class and step kind come from the program's micro-op table, as in the
// timing machine.
func EstimateBlockTime(prog *isa.Program, blockIdx int, m *LatencyModel, cfg timing.Config) float64 {
	blk := prog.Blocks[blockIdx]
	uops := prog.MicroOps()[blk.StartPC : blk.StartPC+blk.Len]
	t := 0.0
	memDone := 0.0
	for i := range uops {
		u := &uops[i]
		switch u.Step {
		case isa.StepWaitcnt:
			t = max(t, memDone) + 1
		case isa.StepVectorMem, isa.StepAtomic:
			memDone = max(memDone, t+m.Latency(u.Class))
			t += float64(cfg.VectorMemIssueCycles)
		default: // ALU, LDS, and the blocking scalar load
			t += m.Latency(u.Class)
		}
	}
	return t
}
