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
