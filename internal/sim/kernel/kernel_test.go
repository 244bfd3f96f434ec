package kernel

import (
	"testing"

	"photon/internal/sim/isa"
	"photon/internal/sim/mem"
)

func validLaunch() *Launch {
	b := isa.NewBuilder("k")
	b.I(isa.OpSNop, isa.Operand{})
	b.End()
	return &Launch{
		Name: "k", Program: b.MustBuild(), Memory: mem.NewFlat(),
		NumWorkgroups: 3, WarpsPerGroup: 2,
	}
}

func TestLaunchCounts(t *testing.T) {
	l := validLaunch()
	if l.TotalWarps() != 6 {
		t.Fatalf("TotalWarps = %d", l.TotalWarps())
	}
}

func TestLaunchValidate(t *testing.T) {
	if err := validLaunch().Validate(); err != nil {
		t.Fatal(err)
	}
	l := validLaunch()
	l.Program = nil
	if l.Validate() == nil {
		t.Error("nil program accepted")
	}
	l = validLaunch()
	l.Memory = nil
	if l.Validate() == nil {
		t.Error("nil memory accepted")
	}
	// A timing-only run of an independent program touches no image.
	l.Steps = StepAddresses
	if err := l.Validate(); err != nil {
		t.Errorf("timing-only launch of an independent program with no memory: %v", err)
	}
	// A dependent program's values reach a timing decision, so it has no
	// timing-only run, with or without an image.
	b := isa.NewBuilder("dep")
	b.Load(isa.OpSLoad, isa.S(4), isa.S(8), 0)
	b.I(isa.OpSCmpEq, isa.Operand{}, isa.S(4), isa.Imm(0))
	b.End()
	l.Program = b.MustBuild()
	if l.Validate() == nil {
		t.Error("timing-only launch of a dependent program with no memory accepted")
	}
	l.Memory = mem.NewFlat()
	if l.Validate() == nil {
		t.Error("timing-only launch of a dependent program accepted")
	}
	// A replay records its tapes on the image, so it needs one, and it
	// runs in order, which an atomic's returned values do not follow.
	l.Steps = StepTape
	if err := l.Validate(); err != nil {
		t.Errorf("replay of a dependent program: %v", err)
	}
	l.Memory = nil
	if l.Validate() == nil {
		t.Error("replay with no memory accepted")
	}
	atomic := isa.NewBuilder("atomic")
	atomic.Store(isa.OpVAtomicAdd, isa.V(0), isa.V(0), 0)
	atomic.End()
	l.Program, l.Memory = atomic.MustBuild(), mem.NewFlat()
	if l.Validate() == nil {
		t.Error("replay of a program with an atomic accepted")
	}
	l = validLaunch()
	l.NumWorkgroups = 0
	if l.Validate() == nil {
		t.Error("empty grid accepted")
	}
	l = validLaunch()
	l.WarpsPerGroup = -1
	if l.Validate() == nil {
		t.Error("negative warps per group accepted")
	}
}
