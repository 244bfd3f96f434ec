package emu

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// ldsLaunch is four one-warp workgroups that each store to their LDS at
// s0 × stride: a stride of 1<<20 puts every workgroup after the first
// outside it, which panics the emulator.
func ldsLaunch(stride int32) *kernel.Launch {
	b := isa.NewBuilder("lds")
	b.SetLDS(256)
	b.I(isa.OpVMul, isa.V(1), isa.S(0), isa.Imm(stride)) // s0 is the workgroup ID
	b.Store(isa.OpLDSStore, isa.V(1), isa.V(0), 0)
	b.End()
	return &kernel.Launch{Name: "lds", Program: b.MustBuild(), Memory: mem.NewFlat(), NumWorkgroups: 4, WarpsPerGroup: 1}
}

// recorded starts Record over l into rec on a new goroutine, which reports
// what Record returned on the channel it returns.
func recorded(rec *Recording, l *kernel.Launch, stop <-chan struct{}) <-chan string {
	out := make(chan string, 1)
	go func() {
		insts, err := rec.Record(l, stop)
		out <- fmt.Sprint(insts, " ", err)
	}()
	return out
}

// within waits up to ten seconds for what recorded reports.
func within(t *testing.T, out <-chan string) string {
	t.Helper()
	select {
	case got := <-out:
		return got
	case <-time.After(10 * time.Second):
		t.Fatal("Record did not return")
		return ""
	}
}

// A closed stop channel ends a Record that waits for an arena: with one
// arena, which the test takes with workgroup 0 and never returns, Record
// waits before workgroup 1 until stop closes, and returns an error, not a
// count. It ends the recording with that error, which a replay that waits
// for workgroup 1 then raises.
func TestRecordStopsWhileWaiting(t *testing.T) {
	rec, stop := NewRecording(1), make(chan struct{})
	out := recorded(rec, ldsLaunch(4), stop)
	if a := rec.take(ldsLaunch(4), 0); a.group != 0 {
		t.Fatalf("took workgroup %d, want 0", a.group)
	}
	close(stop)
	if got := within(t, out); got != "0 emu: lds: recording stopped before workgroup 1 of 4" {
		t.Errorf("Record returned %q, want the stop before workgroup 1 and no count", got)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "recording stopped") {
			t.Errorf("the replay of workgroup 1 raised %q, want the stop", msg)
		}
	}()
	rec.take(ldsLaunch(4), 1)
	t.Error("the replay of workgroup 1 did not panic")
}

// A replay that waits for a workgroup the recording never recorded raises
// the recording's panic with the recording goroutine's stack. The
// recording panics at workgroup 1 and returns the panic as its error; the
// replay has bound workgroup 0 and run it.
func TestReplayRaisesRecordingPanic(t *testing.T) {
	rec := NewRecording(4)
	out := recorded(rec, ldsLaunch(1<<20), make(chan struct{}))
	replay := ldsLaunch(1 << 20)
	replay.Memory, replay.Replay = nil, rec
	var s WarpStore
	s.Configure(replay, 1)
	slot := s.Alloc()
	w := s.Bind(slot, 0, nil)
	for !w.Done() {
		w.Step()
	}
	s.Release(slot)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Bind(slot, 1, nil)
		return ""
	}()
	if !strings.HasPrefix(msg, "emu: lds warp 1: ") || !strings.Contains(msg, "functional recording:") ||
		!strings.Contains(msg, "(*Recording).Record") {
		t.Errorf("the replay raised %q, want the recording's panic with its stack", msg)
	}
	if got := within(t, out); !strings.HasPrefix(got, "3 emu: lds warp 1: ") || !strings.Contains(got, "functional recording:") {
		t.Errorf("Record returned %q, want workgroup 0's count and its panic with its stack", got)
	}
}
