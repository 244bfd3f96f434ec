package timing

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"photon/internal/sim/emu"
	"photon/internal/sim/event"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// streamDigest folds every observer callback — kind, time, warp, then the
// callback's own arguments — into one FNV-1a hash, in delivery order.
type streamDigest struct {
	h     hash.Hash64
	calls int
}

func newStreamDigest() *streamDigest { return &streamDigest{h: fnv.New64a()} }

func (d *streamDigest) put(kind uint64, now event.Time, w *emu.Warp, args ...uint64) {
	var b [8]byte
	for _, v := range append([]uint64{kind, uint64(now), uint64(w.GlobalID)}, args...) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
	d.calls++
}

func (d *streamDigest) want(t *testing.T, calls int, sum uint64) {
	t.Helper()
	if d.calls != calls || d.h.Sum64() != sum {
		t.Fatalf("callback stream: %d calls, digest %#x; the parent commit delivered %d, %#x",
			d.calls, d.h.Sum64(), calls, sum)
	}
}

func (d *streamDigest) OnWarpStart(now event.Time, w *emu.Warp) { d.put(0, now, w) }
func (d *streamDigest) OnWarpRetired(now event.Time, w *emu.Warp, issue event.Time) {
	d.put(1, now, w, uint64(issue))
}
func (d *streamDigest) OnInstIssued(now event.Time, cuID int, w *emu.Warp, c isa.FUClass, lat event.Time) {
	d.put(2, now, w, uint64(cuID), uint64(c), uint64(lat))
}
func (d *streamDigest) OnBlockRetired(now event.Time, w *emu.Warp, b int, enter, exit event.Time) {
	d.put(3, now, w, uint64(b), uint64(enter), uint64(exit))
}

func (d *streamDigest) observer() Observer {
	return Observer{WarpStart: d.OnWarpStart, WarpRetired: d.OnWarpRetired,
		InstIssued: d.OnInstIssued, BlockRetired: d.OnBlockRetired}
}

// divergentLaunch: every lane loops (lane&3)+(warp&3) times over a load and
// an add, so lanes of one warp leave the loop at different trips and warps
// differ in length; then one store per lane.
func divergentLaunch(warps int) *kernel.Launch {
	b := isa.NewBuilder("divloop")
	b.I(isa.OpSLShl, isa.S(4), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(4)) // tid
	b.I(isa.OpVLShl, isa.V(1), isa.V(1), isa.Imm(2))
	b.I(isa.OpVAdd, isa.V(2), isa.V(1), isa.S(8)) // &in[tid]
	b.I(isa.OpSAnd, isa.S(5), isa.S(2), isa.Imm(3))
	b.I(isa.OpVAnd, isa.V(3), isa.V(0), isa.Imm(3))
	b.I(isa.OpVAdd, isa.V(3), isa.V(3), isa.S(5)) // bound
	b.I(isa.OpVMov, isa.V(4), isa.Imm(0))         // k
	b.I(isa.OpVMov, isa.V(5), isa.Imm(0))         // acc
	b.Label("top")
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(4), isa.V(3))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.Br(isa.OpCBranchExecZ, "exit")
	b.Load(isa.OpVLoad, isa.V(6), isa.V(2), 0)
	b.Waitcnt(0)
	b.I(isa.OpVAdd, isa.V(5), isa.V(5), isa.V(6))
	b.I(isa.OpVAdd, isa.V(4), isa.V(4), isa.Imm(1))
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.Br(isa.OpSBranch, "top")
	b.Label("exit")
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.I(isa.OpVAdd, isa.V(7), isa.V(1), isa.S(9))
	b.Store(isa.OpVStore, isa.V(7), isa.V(5), 0)
	b.End()
	m := mem.NewFlat()
	n := warps * kernel.WavefrontSize
	in := m.Alloc(uint64(4 * n))
	out := m.Alloc(uint64(4 * n))
	for i := 0; i < n; i++ {
		m.Write32(in+uint64(4*i), uint32(i))
	}
	return &kernel.Launch{
		Name: "divloop", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: warps, WarpsPerGroup: 1,
		Args: []uint32{uint32(in), uint32(out)},
	}
}

// partialStoreLaunch: warp w stores one word from each of its first
// (w&31)+1 lanes, under a partial EXEC, 64 bytes apart, so each active lane
// is a cache line of its own, and waits for the stores.
func partialStoreLaunch(warps int) *kernel.Launch {
	b := isa.NewBuilder("partialst")
	b.I(isa.OpSAnd, isa.S(4), isa.S(2), isa.Imm(31))
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.Imm(1)) // active lanes
	b.I(isa.OpVCmpLt, isa.Operand{}, isa.V(0), isa.S(4))
	b.I(isa.OpSAndSaveExec, isa.Mask(0))
	b.I(isa.OpSLShl, isa.S(5), isa.S(2), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.S(5)) // tid
	b.I(isa.OpVLShl, isa.V(2), isa.V(1), isa.Imm(6))
	b.I(isa.OpVAdd, isa.V(2), isa.V(2), isa.S(8)) // &out[16*tid]
	b.Store(isa.OpVStore, isa.V(2), isa.V(1), 0)
	b.Waitcnt(0)
	b.I(isa.OpSSetExec, isa.Operand{}, isa.Mask(0))
	b.End()
	m := mem.NewFlat()
	out := m.Alloc(uint64(64 * warps * kernel.WavefrontSize))
	return &kernel.Launch{
		Name: "partialst", Program: b.MustBuild(), Memory: m,
		NumWorkgroups: warps, WarpsPerGroup: 1,
		Args: []uint32{uint32(out)},
	}
}

// TestObserverStreamDigest pins the full callback stream of two launches —
// one with barriers and LDS, one divergent whose dispatch gate fires — to
// digests generated on the commit before direct issue and subscription
// landed (PR 23): the same callbacks, with the same arguments, in the same
// order. A machine that replays the tapes it records of the launch
// (replayOf) delivers the same stream. A third launch stores under a partial EXEC,
// whose address count a recording must keep; its digest was taken when it
// was added, and its two legs share it.
func TestObserverStreamDigest(t *testing.T) {
	legs := func(t *testing.T, run func(t *testing.T, replay bool)) {
		for _, replay := range []bool{false, true} {
			t.Run(map[bool]string{false: "executed", true: "replayed"}[replay], func(t *testing.T) { run(t, replay) })
		}
	}
	t.Run("barriers+LDS", func(t *testing.T) {
		legs(t, func(t *testing.T, replay bool) {
			l, _ := barrierLaunch(300, 4)
			if replay {
				l = replayOf(l)
			}
			d := newStreamDigest()
			res := runDetailed(t, 2, l, d.observer())
			if !res.Complete || res.EndTime != 5596 {
				t.Fatalf("run: %+v", res)
			}
			d.want(t, 24000, 0x9cdba5733aa6c1d6)
		})
	})
	t.Run("divergence+gate", func(t *testing.T) {
		legs(t, func(t *testing.T, replay bool) {
			l := divergentLaunch(600)
			if replay {
				l = replayOf(l)
			}
			d := newStreamDigest()
			m := NewMachine(DefaultCompute(2), testHier(2), d.observer())
			polls := 0
			m.SetStopDispatch(func() bool { polls++; return polls > 400 })
			res, err := m.Run(l)
			if err != nil {
				t.Fatal(err)
			}
			if res.Complete || res.GateTime != 3952 || res.EndTime != 5131 {
				t.Fatalf("gate did not fire where it used to: %+v", res)
			}
			d.want(t, 16920, 0xf18228ae07d42291)
		})
	})
	t.Run("partial-EXEC store", func(t *testing.T) {
		legs(t, func(t *testing.T, replay bool) {
			l := partialStoreLaunch(600)
			if replay {
				l = replayOf(l)
			}
			d := newStreamDigest()
			res := runDetailed(t, 2, l, d.observer())
			if !res.Complete || res.EndTime != 8655 {
				t.Fatalf("run: %+v", res)
			}
			d.want(t, 9000, 0xd94015706ad28f05)
		})
	})
}

// replayOf returns l replaying the tapes it records on l's image as it
// binds each workgroup (kernel.StepTape).
func replayOf(l *kernel.Launch) *kernel.Launch {
	r := *l
	r.Steps = kernel.StepTape
	return &r
}

// TestOneSIMDIssueOrder drives a single SIMD through its three cases. Three
// one-warp groups become ready in the same cycle (16, the dispatch latency):
// the first finds the SIMD idle and issues inside its readiness event, the
// other two find the port busy and queue, and the pump issues them in arrival
// order one occupancy window (4 cycles for v_add) apart. Warp 0 then waits
// for its cold instruction fetch while warps 1 and 2, whose fetches hit the
// line it installed, come back to an idle or a busy port in turn.
func TestOneSIMDIssueOrder(t *testing.T) {
	b := isa.NewBuilder("three")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.V(0))
	b.I(isa.OpSMov, isa.S(4), isa.Imm(0))
	b.End()
	l := &kernel.Launch{Name: "three", Program: b.MustBuild(), Memory: mem.NewFlat(),
		NumWorkgroups: 3, WarpsPerGroup: 1}
	cfg := DefaultCompute(1)
	cfg.SIMDsPerCU = 1
	var got []issueAt
	m := NewMachine(cfg, testHier(1), Observer{
		InstIssued: func(now event.Time, _ int, w *emu.Warp, _ isa.FUClass, _ event.Time) {
			got = append(got, issueAt{now, w.GlobalID})
		}})
	if _, err := m.Run(l); err != nil {
		t.Fatal(err)
	}
	want := []issueAt{{16, 0}, {20, 1}, {24, 2}, {40, 1}, {41, 1}, {44, 2}, {45, 2}, {366, 0}, {367, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("issues (cycle, warp):\n got %v\nwant %v", got, want)
	}
}

// TestObserverSubscription: the machine calls exactly the callbacks a run
// subscribed to — a retirement-only observer is never called per instruction
// or per block, the zero Observer (every gpu.FullRunner{} run) is never
// called at all — and what is subscribed does not change what is simulated.
func TestObserverSubscription(t *testing.T) {
	full := &countingObserver{}
	l, _ := barrierLaunch(40, 4)
	want := runDetailed(t, 2, l, full.observer())
	if full.insts == 0 || full.blocks == 0 || full.starts != 160 || full.retires != 160 {
		t.Fatalf("fully subscribed observer: %+v", full)
	}
	for _, tc := range []struct {
		name string
		sub  func(*countingObserver) Observer
		want countingObserver
	}{
		{"none", func(*countingObserver) Observer { return Observer{} }, countingObserver{}},
		{"retirement only", func(o *countingObserver) Observer { return Observer{WarpRetired: o.OnWarpRetired} },
			countingObserver{retires: 160, lastRetire: full.lastRetire}},
		{"blocks only", func(o *countingObserver) Observer { return Observer{BlockRetired: o.OnBlockRetired} },
			countingObserver{blocks: full.blocks}},
	} {
		o := &countingObserver{}
		l, _ := barrierLaunch(40, 4)
		if got := runDetailed(t, 2, l, tc.sub(o)); got != want {
			t.Errorf("%s: result %+v, fully observed run %+v", tc.name, got, want)
		}
		if *o != tc.want {
			t.Errorf("%s: observer saw %+v, want %+v", tc.name, *o, tc.want)
		}
	}
}
