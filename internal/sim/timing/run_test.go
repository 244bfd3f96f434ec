package timing

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// runLaunch is the private-run scenario: two-warp workgroups whose warps
// loop 1 + (group&1) times over a vector load followed by a six-micro-op
// register-only run, an s_waitcnt and a two-micro-op run ending in the loop
// branch, then meet at a barrier and store. Odd groups run one trip longer,
// so resident groups drift out of phase.
func runLaunch(groups int) *kernel.Launch {
	b := isa.NewBuilder("runs")
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // tid
	b.I(isa.OpVLShl, isa.V(1), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(8)) // &in[tid]
	b.I(isa.OpSAnd, isa.S(5), isa.S(0), isa.Imm(1))
	b.I(isa.OpSAdd, isa.S(5), isa.S(5), isa.Imm(1)) // trips
	b.I(isa.OpSMov, isa.S(6), isa.Imm(0))
	b.I(isa.OpVMov, isa.V(6), isa.Imm(0))
	b.Label("top")
	b.Load(isa.OpVLoad, isa.V(3), isa.V(2), 0)
	b.I(isa.OpVAdd, isa.V(4), isa.V(1), isa.S(9)) // &out[tid]
	b.I(isa.OpVCvtI2F, isa.V(5), isa.V(0))
	b.I(isa.OpVFMul, isa.V(5), isa.V(5), isa.V(5))
	b.I(isa.OpSAdd, isa.S(6), isa.S(6), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(6), isa.S(5))
	b.I(isa.OpVFAdd, isa.V(6), isa.V(6), isa.V(5))
	b.Waitcnt(0)
	b.I(isa.OpVFAdd, isa.V(6), isa.V(6), isa.V(3))
	b.Br(isa.OpCBranchSCC1, "top")
	b.Barrier()
	b.Store(isa.OpVStore, isa.V(4), isa.V(6), 0)
	b.End()
	m := mem.NewFlat()
	n := 2 * groups * kernel.WavefrontSize
	in := m.Alloc(uint64(4 * n))
	out := m.Alloc(uint64(4 * n))
	for i := 0; i < n; i++ {
		m.WriteF32(in+uint64(4*i), float32(i))
	}
	return &kernel.Launch{
		Name: "runs", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: groups, WarpsPerGroup: 2,
		Args: []uint32{uint32(in), uint32(out)},
	}
}

type issueAt struct {
	at   event.Time
	warp int
}

// TestPrivateRunIssueOrder pins every (cycle, warp) issue of the scenario on
// one SIMD with room for two workgroups to the pairs the parent commit
// (c2a60c6, one emulator call per instruction) produced: executing a run
// ahead of its issue slots moves no issue. The gate fires at the sixth poll —
// group 1's retirement, group 3 never dispatched — and the test checks on
// itself that this happens while a resident warp is inside a run, and that a
// six-micro-op run is interleaved with another warp's vector load.
func TestPrivateRunIssueOrder(t *testing.T) {
	l := runLaunch(4)
	uops := l.Program.MicroOps()
	if load := slices.IndexFunc(uops, func(u isa.MicroOp) bool { return u.Op == isa.OpVLoad }); uops[load].Run != 6 {
		t.Fatalf("the load's private run is %d micro-ops, the scenario wants 6", uops[load].Run)
	}
	cfg := DefaultCompute(1)
	cfg.SIMDsPerCU, cfg.WarpSlotsPerSIMD = 1, 4

	var got []issueAt
	var classes []isa.FUClass
	var aheads []uint64        // ahead, per issue
	issued := map[int]uint64{} // instructions the machine has issued, per warp
	ahead := map[int]uint64{}  // how far the emulator was ahead at the warp's last issue
	m := NewMachine(cfg, testHier(1), Observer{
		InstIssued: func(now event.Time, _ int, w *emu.Warp, c isa.FUClass, _ event.Time) {
			got = append(got, issueAt{now, w.GlobalID})
			classes = append(classes, c)
			issued[w.GlobalID]++
			ahead[w.GlobalID] = w.InstCount() - issued[w.GlobalID]
			aheads = append(aheads, ahead[w.GlobalID])
		},
		WarpRetired: func(_ event.Time, w *emu.Warp, _ event.Time) { delete(ahead, w.GlobalID) },
	})
	polls, midRunAtGate := 0, false
	m.SetStopDispatch(func() bool {
		if polls++; polls < 6 {
			return false
		}
		for _, a := range ahead {
			midRunAtGate = midRunAtGate || a > 0
		}
		return true
	})
	res, err := m.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if !midRunAtGate {
		t.Error("no resident warp was inside a private run when the gate fired")
	}
	// Some warp's vector load issues between two issues of one other warp
	// that is inside a run: the run executed before the load did, and is
	// issued around it.
	interleaved := false
	for i := 1; i+1 < len(got); i++ {
		interleaved = interleaved || classes[i] == isa.FUVectorMem && aheads[i-1] > 0 &&
			got[i-1].warp == got[i+1].warp && got[i-1].warp != got[i].warp
	}
	if !interleaved {
		t.Error("no vector load issued between two issues of another warp's run")
	}
	if res.Complete || res.NextWG != 3 || res.GateTime != wantRunGate || res.EndTime != wantRunEnd {
		t.Errorf("result %+v, want gate at %d, end at %d, 3 groups", res, wantRunGate, wantRunEnd)
	}
	if !slices.Equal(got, wantRunIssues) {
		var sb strings.Builder
		for i, g := range got {
			if i%8 == 0 {
				sb.WriteString("\n\t")
			}
			fmt.Fprintf(&sb, "{%d, %d}, ", g.at, g.warp)
		}
		t.Fatalf("issues (cycle, warp) differ from the parent commit's; got:%s", sb.String())
	}
}

// TestObserverStateContract holds the machine to what observer.go promises
// about the state behind the warp handle: exact at WarpStart, BlockRetired
// and WarpRetired — at every BlockRetired the BBV sums to the blocks the warp
// has entered, all of them left — and inside InstIssued ahead of the issued
// instruction by no more than a private run.
func TestObserverStateContract(t *testing.T) {
	barriers, _ := barrierLaunch(12, 4)
	for _, l := range []*kernel.Launch{runLaunch(9), barriers, divergentLaunch(24)} {
		var maxRun uint64
		for _, u := range l.Program.MicroOps() {
			maxRun = max(maxRun, uint64(u.Run))
		}
		issued := map[int]uint64{}
		left := map[int]uint32{} // blocks retired, per warp
		sawAhead := false
		exact := func(at string, w *emu.Warp) {
			if w.InstCount() != issued[w.GlobalID] {
				t.Fatalf("%s: %s of warp %d sees %d instructions executed, %d issued",
					l.Name, at, w.GlobalID, w.InstCount(), issued[w.GlobalID])
			}
		}
		runDetailed(t, 2, l, Observer{
			WarpStart: func(_ event.Time, w *emu.Warp) { exact("WarpStart", w) },
			InstIssued: func(_ event.Time, _ int, w *emu.Warp, _ isa.FUClass, _ event.Time) {
				issued[w.GlobalID]++
				ahead := w.InstCount() - issued[w.GlobalID]
				if ahead > maxRun {
					t.Fatalf("%s: InstIssued of warp %d: emulator %d instructions ahead, longest run %d",
						l.Name, w.GlobalID, ahead, maxRun)
				}
				sawAhead = sawAhead || ahead > 0
			},
			BlockRetired: func(_ event.Time, w *emu.Warp, _ int, _, _ event.Time) {
				exact("BlockRetired", w)
				left[w.GlobalID]++
				var entered uint32
				for _, c := range w.BBCounts() {
					entered += c
				}
				if entered != left[w.GlobalID] {
					t.Fatalf("%s: BlockRetired of warp %d: BBV sums to %d blocks entered, %d left",
						l.Name, w.GlobalID, entered, left[w.GlobalID])
				}
			},
			WarpRetired: func(_ event.Time, w *emu.Warp, _ event.Time) {
				exact("WarpRetired", w)
				if !w.Done() {
					t.Fatalf("%s: warp %d retired before s_endpgm", l.Name, w.GlobalID)
				}
			},
		})
		if !sawAhead {
			t.Errorf("%s: the emulator was never ahead of the issue cursor", l.Name)
		}
	}
}

// Generated by running this test on c2a60c6.
const wantRunGate, wantRunEnd = 783, 1056

var wantRunIssues = []issueAt{
	{16, 0}, {17, 1}, {18, 2}, {19, 3}, {37, 1}, {41, 2}, {45, 3}, {49, 1},
	{53, 2}, {57, 3}, {61, 1}, {65, 2}, {69, 3}, {73, 1}, {74, 2}, {75, 3},
	{76, 1}, {77, 2}, {78, 3}, {79, 1}, {80, 2}, {81, 3}, {82, 1}, {86, 2},
	{90, 3}, {94, 1}, {98, 2}, {102, 3}, {118, 2}, {122, 3}, {126, 2}, {130, 3},
	{134, 2}, {138, 3}, {142, 2}, {143, 3}, {144, 2}, {145, 3}, {146, 2}, {150, 3},
	{154, 2}, {155, 3}, {366, 0}, {370, 0}, {374, 0}, {378, 0}, {379, 0}, {380, 0},
	{381, 0}, {385, 0}, {405, 0}, {409, 0}, {413, 0}, {417, 0}, {418, 0}, {419, 0},
	{423, 0}, {444, 1}, {448, 1}, {452, 1}, {456, 1}, {457, 1}, {458, 1}, {462, 2},
	{466, 1}, {467, 3}, {471, 2}, {472, 1}, {476, 3}, {477, 2}, {481, 1}, {482, 3},
	{486, 1}, {497, 2}, {501, 2}, {505, 3}, {509, 2}, {513, 3}, {517, 2}, {518, 3},
	{522, 2}, {523, 3}, {524, 2}, {528, 3}, {529, 2}, {530, 3}, {534, 2}, {538, 3},
	{539, 2}, {540, 3}, {544, 2}, {545, 3}, {546, 3}, {554, 2}, {558, 3}, {574, 2},
	{578, 3}, {594, 4}, {595, 5}, {614, 4}, {618, 5}, {622, 4}, {626, 5}, {630, 4},
	{634, 5}, {638, 4}, {639, 5}, {640, 4}, {641, 5}, {642, 4}, {643, 5}, {644, 4},
	{648, 5}, {652, 4}, {656, 5}, {672, 4}, {676, 5}, {680, 4}, {684, 5}, {688, 4},
	{692, 5}, {696, 4}, {697, 5}, {698, 4}, {699, 5}, {700, 4}, {704, 5}, {708, 4},
	{709, 5}, {746, 0}, {750, 0}, {751, 0}, {759, 0}, {763, 1}, {779, 0}, {783, 1},
	{1013, 4}, {1017, 5}, {1021, 4}, {1022, 5}, {1023, 4}, {1024, 5}, {1032, 4}, {1036, 5},
	{1052, 4}, {1056, 5},
}
