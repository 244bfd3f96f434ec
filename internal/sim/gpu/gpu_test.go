package gpu

import (
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/sim/timing"
)

func TestTable1R9Nano(t *testing.T) {
	cfg := R9Nano()
	if cfg.Compute.NumCUs != 64 {
		t.Errorf("R9 Nano CUs = %d, want 64", cfg.Compute.NumCUs)
	}
	m := cfg.Memory
	if m.L1V.SizeBytes != 16*1024 || m.L1V.Ways != 4 {
		t.Error("L1V config mismatch with Table 1")
	}
	if m.L1I.SizeBytes != 32*1024 || m.NumCUs/m.CUsPerScalarBlock != 16 {
		t.Error("L1I config mismatch with Table 1 (32KB, 16 per GPU)")
	}
	if m.L2.SizeBytes != 256*1024 || m.L2.Ways != 16 || m.L2Banks != 8 {
		t.Error("L2 config mismatch with Table 1 (256KB 16-way, 8 per GPU)")
	}
	if cfg.DRAMBytes != 4<<30 {
		t.Error("DRAM capacity mismatch with Table 1 (4GB)")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1MI100(t *testing.T) {
	cfg := MI100()
	if cfg.Compute.NumCUs != 120 {
		t.Errorf("MI100 CUs = %d, want 120", cfg.Compute.NumCUs)
	}
	m := cfg.Memory
	if m.NumCUs/m.CUsPerScalarBlock != 30 {
		t.Error("MI100 scalar blocks mismatch with Table 1 (30 per GPU)")
	}
	if m.L2Banks*m.L2.SizeBytes != 8<<20 {
		t.Error("MI100 L2 total mismatch with Table 1 (8MB)")
	}
	if cfg.DRAMBytes != 32<<30 {
		t.Error("MI100 DRAM capacity mismatch with Table 1 (32GB)")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigsLookup(t *testing.T) {
	if c, ok := Configs("r9nano"); !ok || c.Name != "R9 Nano" {
		t.Fatal("r9nano lookup failed")
	}
	if c, ok := Configs("mi100"); !ok || c.Name != "MI100" {
		t.Fatal("mi100 lookup failed")
	}
	if _, ok := Configs("h100"); ok {
		t.Fatal("unknown config accepted")
	}
}

func tinyLaunch() *kernel.Launch {
	b := isa.NewBuilder("tiny")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.V(0))
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.S(8))
	b.Store(isa.OpVStore, isa.V(2), isa.V(1), 0)
	b.End()
	m := mem.NewFlat()
	out := m.Alloc(4 * kernel.WavefrontSize)
	return &kernel.Launch{
		Name: "tiny", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: 4, WarpsPerGroup: 1,
		Args: []uint32{uint32(out)},
	}
}

func TestFullRunner(t *testing.T) {
	g := New(R9Nano())
	res, err := RunKernel(FullRunner{}, g, tinyLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "full" || res.SimTime <= 0 || res.Insts == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.DetailedInsts != res.Insts {
		t.Fatal("full runner must simulate everything in detail")
	}
	if res.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
}

func TestFunctionalRunner(t *testing.T) {
	g := New(R9Nano())
	res, err := RunKernel(FunctionalRunner{}, g, tinyLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 || res.SimTime != 0 {
		t.Fatalf("bad functional result %+v", res)
	}
	if res.IPC() != 0 {
		t.Fatal("functional IPC should be zero (no timing)")
	}
}

func TestRunDetailedResetsCaches(t *testing.T) {
	g := New(R9Nano())
	l1 := tinyLaunch()
	r1, err := g.RunDetailed(l1, timing.Observer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same kernel launched again must be bit-identical because caches
	// reset per kernel — this is what kernel-sampling's IPC-similarity
	// assumption rests on.
	l2 := tinyLaunch()
	r2, err := g.RunDetailed(l2, timing.Observer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.EndTime != r2.EndTime {
		t.Fatalf("repeat launch differs: %d vs %d", r1.EndTime, r2.EndTime)
	}
}
