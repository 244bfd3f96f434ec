package isa_test

import (
	"slices"
	"strings"
	"testing"

	"photon/internal/harness"
	"photon/internal/sim/isa"
	"photon/internal/workloads/dnn"
)

// Every generator in the catalog is classified: the streaming Table-2 apps,
// the tree reduction and the forward DNNs have no launch whose timing reads
// memory contents; SPMV's column gathers, PageRank's neighbour gathers,
// BFS's frontier and KMeans' nearest-centroid compare make theirs read
// them, as do AES's table lookups and HIST's atomics. The training step is
// independent but for its backward ReLUs, whose store mask is the forward
// activation's sign.
func TestGeneratorsIndependence(t *testing.T) {
	independent := []string{"FIR", "SC", "MM", "ReLU", "REDUCE", "transformer"}
	dependent := []string{"AES", "SPMV", "HIST", "KMEANS", "BFS", "pr"}
	for _, wl := range harness.Workloads() {
		size := wl.Min
		if len(wl.Sizes) > 0 {
			size = slices.Min(wl.Sizes)
		}
		app, err := wl.Build(size, dnn.Scale{Input: 32, ChannelDiv: 8})
		if err != nil {
			t.Fatalf("%s at %d: %v", wl.Name, size, err)
		}
		var dep []string
		for _, l := range app.Launches {
			if !l.Program.Independent() {
				dep = append(dep, l.Name)
			}
		}
		switch {
		case slices.Contains(independent, wl.Name) || strings.HasPrefix(wl.Name, "vgg") || strings.HasPrefix(wl.Name, "resnet"):
			if len(dep) > 0 {
				t.Errorf("%s: dependent launches %v, want none", wl.Name, dep)
			}
		case slices.Contains(dependent, wl.Name):
			if len(dep) == 0 {
				t.Errorf("%s: every launch independent, want a dependent one", wl.Name)
			}
		case wl.Name == "trainstep":
			for _, name := range dep {
				if !strings.HasSuffix(name, ".bwd.relu") {
					t.Errorf("trainstep: %s is dependent, want only the backward ReLUs", name)
				}
			}
			if len(dep) == 0 {
				t.Error("trainstep: the backward ReLUs are independent")
			}
		default:
			t.Errorf("%s is not classified here", wl.Name)
		}
	}
}

// A program with an atomic says so (HasAtomic) and is never independent,
// and a dependent program marks no micro-op Dead: only an independent
// program's timing-only run may skip any.
func TestAtomicsAndDependentProgramsMarkNothing(t *testing.T) {
	atomics := 0
	for p, name := range runPrograms(t) {
		hasAtomic := slices.ContainsFunc(p.Insts, func(in isa.Inst) bool { return in.Op.IsAtomic() })
		if p.HasAtomic() != hasAtomic {
			t.Errorf("%s: HasAtomic() = %v, want %v", name, p.HasAtomic(), hasAtomic)
		}
		if hasAtomic {
			atomics++
			if p.Independent() {
				t.Errorf("%s: independent with an atomic", name)
			}
		}
		if !p.Independent() && slices.ContainsFunc(p.MicroOps(), func(u isa.MicroOp) bool { return u.Dead }) {
			t.Errorf("%s: dependent, yet marks a micro-op dead", name)
		}
	}
	if atomics == 0 {
		t.Fatal("no program with an atomic in the corpus")
	}
}

// build assembles a hand-written program whose address registers come from
// the dispatch ids and the kernel arguments: v1 = s2*256 + lane*4 + s8.
func build(t *testing.T, body func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("hand")
	b.SetLDS(256)
	b.I(isa.OpVLShl, isa.V(1), isa.V(0), isa.Imm(2))
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(8))
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.S(8))
	b.I(isa.OpVAdd, isa.V(1), isa.V(1), isa.S(4))
	body(b)
	b.End()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// deadAt reports the Dead mark of the first micro-op with opcode op.
func deadAt(t *testing.T, p *isa.Program, op isa.Op) bool {
	t.Helper()
	for pc, in := range p.Insts {
		if in.Op == op {
			return p.MicroOps()[pc].Dead
		}
	}
	t.Fatalf("no %s in\n%s", op, p.Disassemble())
	return false
}

func TestHandWrittenIndependence(t *testing.T) {
	for _, tc := range []struct {
		name        string
		body        func(b *isa.Builder)
		independent bool
	}{
		{"ids and args are untainted", func(b *isa.Builder) {
			b.I(isa.OpVMad, isa.V(2), isa.V(0), isa.S(3), isa.V(1))
			b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(0), isa.S(9))
			b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
		}, true},
		{"a load that feeds an address", func(b *isa.Builder) {
			b.Load(isa.OpVLoad, isa.V(2), isa.V(1), 0)
			b.I(isa.OpVAdd, isa.V(3), isa.V(2), isa.S(8))
			b.Store(isa.OpVStore, isa.V(3), isa.V(0), 0)
		}, false},
		{"a scalar load that feeds a scalar address", func(b *isa.Builder) {
			b.Load(isa.OpSLoad, isa.S(5), isa.S(8), 0)
			b.Load(isa.OpSLoad, isa.S(6), isa.S(5), 4)
		}, false},
		{"a load that feeds a branch", func(b *isa.Builder) {
			b.Load(isa.OpSLoad, isa.S(5), isa.S(8), 0)
			b.I(isa.OpSCmpEq, isa.Operand{}, isa.S(5), isa.Imm(0))
			b.Br(isa.OpCBranchSCC1, "out")
			b.Label("out")
		}, false},
		{"a load that feeds EXEC", func(b *isa.Builder) {
			b.Load(isa.OpVLoad, isa.V(2), isa.V(1), 0)
			b.I(isa.OpVFCmpGt, isa.Operand{}, isa.V(2), isa.ImmF32(0))
			b.I(isa.OpSAndSaveExec, isa.Mask(0))
			b.Store(isa.OpVStore, isa.V(1), isa.V(2), 0)
			b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
		}, false},
		{"an LDS load that feeds an address", func(b *isa.Builder) {
			b.Load(isa.OpLDSLoad, isa.V(2), isa.V(0), 0)
			b.Store(isa.OpVStore, isa.V(2), isa.V(0), 0)
		}, false},
		{"loads that feed only stored values", func(b *isa.Builder) {
			b.Load(isa.OpVLoad, isa.V(2), isa.V(1), 0)
			b.Load(isa.OpLDSLoad, isa.V(3), isa.V(1), 0)
			b.I(isa.OpVFFma, isa.V(4), isa.V(2), isa.V(3), isa.V(4))
			b.Store(isa.OpLDSStore, isa.V(1), isa.V(4), 0)
			b.Store(isa.OpVStore, isa.V(1), isa.V(4), 0)
		}, true},
		{"an atomic whose result is dropped", func(b *isa.Builder) {
			b.I(isa.OpVAtomicAdd, isa.Operand{}, isa.V(1), isa.Imm(1))
		}, false},
	} {
		p := build(t, tc.body)
		if p.Independent() != tc.independent {
			t.Errorf("%s: Independent() = %v, want %v\n%s", tc.name, p.Independent(), tc.independent, p.Disassemble())
		}
	}
}

// In an independent program an ALU op that feeds an address, directly or
// through another ALU op, or only a compare, and a compare that feeds EXEC
// stay live; an ALU op that feeds only stored values, and every LDS op, are
// dead.
func TestHandWrittenLiveness(t *testing.T) {
	p := build(t, func(b *isa.Builder) {
		b.I(isa.OpVMad, isa.V(2), isa.V(0), isa.S(3), isa.V(1)) // address
		b.I(isa.OpVSub, isa.V(6), isa.V(0), isa.S(1))           // compared only
		b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(6), isa.S(9))    // EXEC
		b.I(isa.OpSAndSaveExec, isa.Mask(0))
		b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
		b.Load(isa.OpLDSLoad, isa.V(4), isa.V(1), 0)
		b.I(isa.OpVFFma, isa.V(5), isa.V(3), isa.V(4), isa.V(5)) // stored value
		b.I(isa.OpSMul, isa.S(6), isa.S(0), isa.S(1))            // read by nothing
		b.Store(isa.OpLDSStore, isa.V(1), isa.V(5), 0)
		b.Store(isa.OpVStore, isa.V(2), isa.V(5), 0)
		b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	})
	if !p.Independent() {
		t.Fatalf("not independent:\n%s", p.Disassemble())
	}
	for _, tc := range []struct {
		op   isa.Op
		dead bool
	}{
		{isa.OpVLShl, false}, {isa.OpSLShl, false}, {isa.OpSAdd, false}, {isa.OpVAdd, false},
		{isa.OpVMad, false}, {isa.OpVSub, false}, {isa.OpVCmpLt, false}, {isa.OpSAndSaveExec, false},
		{isa.OpVLoad, false}, {isa.OpVStore, false},
		{isa.OpVFFma, true}, {isa.OpSMul, true}, {isa.OpLDSLoad, true}, {isa.OpLDSStore, true},
	} {
		if got := deadAt(t, p, tc.op); got != tc.dead {
			t.Errorf("%s: Dead = %v, want %v\n%s", tc.op, got, tc.dead, p.Disassemble())
		}
	}
	q := p.WithBlockOptions(isa.BlockOptions{SplitAtWaitcnt: true})
	for pc, u := range q.MicroOps() {
		if u.Dead != p.MicroOps()[pc].Dead || !q.Independent() {
			t.Fatalf("pc%d: the SplitAtWaitcnt program's marks differ", pc)
		}
	}
}
