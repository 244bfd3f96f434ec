package timing

import (
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// aluLaunch is an ALU-bound kernel: every warp runs a 64-trip loop of eight
// vector ALU instructions and stores one result, so host time is the issue
// path, the event queue and the emulator's ALU, not the memory hierarchy.
func aluLaunch(warps int) *kernel.Launch {
	b := isa.NewBuilder("alu")
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4))
	b.I(isa.OpVMov, isa.V(2), isa.Imm(1))
	b.I(isa.OpSMov, isa.S(5), isa.Imm(0))
	b.Label("top")
	for i := 0; i < 4; i++ {
		b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.V(1))
		b.I(isa.OpVFMul, isa.V(3), isa.V(2), isa.V(2))
	}
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(5), isa.Imm(64))
	b.Br(isa.OpCBranchSCC1, "top")
	b.I(isa.OpVLShl, isa.V(1), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.S(8))
	b.Store(isa.OpVStore, isa.V(1), isa.V(3), 0)
	b.End()
	m := mem.NewFlat()
	out := m.Alloc(uint64(4 * warps * kernel.WavefrontSize))
	return &kernel.Launch{
		Name: "alu", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: warps, WarpsPerGroup: 1,
		Args: []uint32{uint32(out)},
	}
}

// BenchmarkMachineIssue measures the per-instruction host cost of an
// unobserved detailed run — a fresh machine over a cold hierarchy per
// iteration, as gpu.RunDetailed runs a kernel — on an ALU-bound launch (one
// emulator call per eleven-instruction loop trip), on a streaming one (load,
// multiply, store per thread) and on the run scenario of run_test.go (a load,
// the six-micro-op run behind it, s_waitcnt, barrier). events/inst is the
// event-queue traffic one instruction costs; it is a property of the model
// and must not move when only the host path changes.
func BenchmarkMachineIssue(b *testing.B) {
	stream, _ := scaleLaunch(8192)
	for _, bc := range []struct {
		name string
		l    *kernel.Launch
	}{{"alu", aluLaunch(1024)}, {"stream", stream}, {"run", runLaunch(2048)}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, hier := DefaultCompute(4), testHier(4)
			var insts, events uint64
			for i := 0; i < b.N; i++ {
				hier.Reset()
				m := NewMachine(cfg, hier, Observer{})
				res, err := m.Run(bc.l)
				if err != nil {
					b.Fatal(err)
				}
				insts += res.InstCount
				events += m.engine.Processed()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
			b.ReportMetric(float64(events)/float64(insts), "events/inst")
		})
	}
}
