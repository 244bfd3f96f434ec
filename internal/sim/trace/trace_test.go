package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"photon/internal/sim/gpu"
	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
	"photon/internal/stats"
)

func traceLaunch() *kernel.Launch {
	b := isa.NewBuilder("t")
	b.I(isa.OpVAdd, isa.V(1), isa.V(0), isa.V(0))
	b.I(isa.OpSMov, isa.S(4), isa.Imm(0))
	b.Label("loop")
	b.I(isa.OpSAdd, isa.S(4), isa.S(4), isa.Imm(1))
	b.I(isa.OpSCmpLt, isa.Operand{}, isa.S(4), isa.Imm(3))
	b.Br(isa.OpCBranchSCC1, "loop")
	b.End()
	return &kernel.Launch{
		Name: "t", Program: b.MustBuild(), Memory: mem.NewFlat(),
		NumWorkgroups: 4, WarpsPerGroup: 1,
	}
}

func runTraced(t *testing.T, level Level) (*Tracer, string) {
	t.Helper()
	var buf bytes.Buffer
	tr := New(&buf, level)
	g := gpu.New(gpu.R9Nano())
	if _, err := g.RunDetailed(traceLaunch(), tr.Observer(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr, buf.String()
}

func TestWarpLevelTrace(t *testing.T) {
	tr, out := runTraced(t, LevelWarp)
	if tr.Warps != 4 {
		t.Fatalf("traced %d warp retirements, want 4", tr.Warps)
	}
	if strings.Count(out, "W+") != 4 || strings.Count(out, "W-") != 4 {
		t.Fatalf("trace missing warp events:\n%s", out)
	}
	if strings.Contains(out, "B ") || strings.Contains(out, "I ") {
		t.Fatal("warp-level trace contains block/inst events")
	}
}

func TestBlockLevelTrace(t *testing.T) {
	tr, out := runTraced(t, LevelBlock)
	// Blocks per warp: entry (pc0..1), 3 loop iterations, exit -> 5.
	if tr.Blocks != 4*5 {
		t.Fatalf("traced %d block retirements, want 20", tr.Blocks)
	}
	if !strings.Contains(out, "dur=") {
		t.Fatal("block events missing durations")
	}
}

func TestInstLevelTrace(t *testing.T) {
	tr, out := runTraced(t, LevelInst)
	// Each warp runs 2 + 3*3 + 1 = 12 instructions.
	if tr.Insts != 4*12 {
		t.Fatalf("traced %d instructions, want 48", tr.Insts)
	}
	if !strings.Contains(out, "fu=scalar") {
		t.Fatal("instruction events missing functional units")
	}
}

func TestTracerComposesWithOtherObservers(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, LevelWarp)
	ipc := stats.NewIPCCollector(100)
	g := gpu.New(gpu.R9Nano())
	obs := tr.Observer() // a warp-level trace leaves InstIssued free
	obs.InstIssued = ipc.OnInstIssued
	if _, err := g.RunDetailed(traceLaunch(), obs, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Warps != 4 || ipc.Total() == 0 {
		t.Fatal("composed observers missed events")
	}
}

// failAfter fails every write once n bytes have been accepted, like a disk
// filling up mid-trace.
type failAfter struct {
	n       int
	written int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written >= w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestTracerReportsWriteErrorsAndDrops(t *testing.T) {
	// A zero budget fails the first buffer flush; the launch is sized well
	// past bufio's buffer so the failure strikes while instruction events
	// are still streaming and later events must be counted as dropped.
	tr := New(&failAfter{n: 0}, LevelInst)
	l := traceLaunch()
	l.NumWorkgroups = 64
	g := gpu.New(gpu.R9Nano())
	if _, err := g.RunDetailed(l, tr.Observer(), nil); err != nil {
		t.Fatal(err)
	}
	err := tr.Flush()
	if err == nil {
		t.Fatal("Flush() = nil, want the underlying write error")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush() = %v, want the disk-full error", err)
	}
	if tr.Err() == nil {
		t.Fatal("Err() = nil after failed writes")
	}
	if tr.Dropped() == 0 {
		t.Fatal("Dropped() = 0, want events discarded after the write error")
	}
	// Counters still reflect simulated events, not written ones.
	if tr.Insts != 64*12 {
		t.Fatalf("Insts = %d, want %d even when the sink fails", tr.Insts, 64*12)
	}
}

func TestTracerFlushCleanOnHealthySink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, LevelInst)
	g := gpu.New(gpu.R9Nano())
	if _, err := g.RunDetailed(traceLaunch(), tr.Observer(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush() = %v on healthy sink", err)
	}
	if tr.Err() != nil || tr.Dropped() != 0 {
		t.Fatalf("healthy trace reports err=%v dropped=%d", tr.Err(), tr.Dropped())
	}
}
