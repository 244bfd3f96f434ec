package event

import (
	"math/rand"
	"testing"

	"photon/internal/testutil"
)

// scheduler is the API surface shared by Engine and RefEngine, so one
// scenario can drive both.
type scheduler interface {
	Schedule(at Time, h Handler)
	After(delay Time, h Handler)
	Run() Time
	Step() bool
	Now() Time
	Pending() int
	Processed() uint64
}

var (
	_ scheduler = (*Engine)(nil)
	_ scheduler = (*RefEngine)(nil)
)

// fireRecord captures one event execution.
type fireRecord struct {
	id  int
	now Time
}

// runScenario drives e with a randomized schedule derived from seed:
// initial events across near (wheel) and far (heap) horizons, where some
// events re-schedule children relative to their own fire time — including
// zero-delay and past (clamped) times. Both engines fire in identical
// order, so the child cascade evolves identically, and the full fire log is
// comparable record by record.
func runScenario(e scheduler, seed int64) []fireRecord {
	rng := rand.New(rand.NewSource(seed))
	var log []fireRecord
	nextID := 0
	var spawn func(depth int) Handler
	spawn = func(depth int) Handler {
		id := nextID
		nextID++
		return func(now Time) {
			log = append(log, fireRecord{id: id, now: now})
			if depth >= 3 {
				return
			}
			for k := rng.Intn(3); k > 0; k-- {
				// Mix wheel-range offsets, far offsets and past times (the
				// -64 offset exercises the clamp path).
				off := Time(rng.Intn(600)) - 64
				e.Schedule(now+off, spawn(depth+1))
			}
		}
	}
	for i := 0; i < 400; i++ {
		e.Schedule(Time(rng.Intn(2000)), spawn(0))
	}
	e.Run()
	return log
}

// TestDifferentialVsRefEngine drives the wheel+4-ary-heap engine and the
// container/heap reference with identical randomized schedules and demands
// identical fire order — the byte-identical guarantee the simulator's
// determinism rests on.
func TestDifferentialVsRefEngine(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := runScenario(New(), seed)
		want := runScenario(NewRef(), seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at event %d: got id=%d@%d, reference id=%d@%d",
					seed, i, got[i].id, got[i].now, want[i].id, want[i].now)
			}
		}
	}
}

// TestDifferentialStep checks the single-step path against the reference:
// after every event the two engines agree on the clock and on what is left.
func TestDifferentialStep(t *testing.T) {
	build := func(e scheduler) *[]fireRecord {
		log := &[]fireRecord{}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			id := i
			e.Schedule(Time(rng.Intn(1500)), func(now Time) {
				*log = append(*log, fireRecord{id: id, now: now})
			})
		}
		return log
	}
	a, b := New(), NewRef()
	la, lb := build(a), build(b)
	for a.Step() && b.Step() {
		if a.Now() != b.Now() || a.Pending() != b.Pending() {
			t.Fatalf("after %d steps: engine (now=%d pending=%d) != reference (now=%d pending=%d)",
				a.Processed(), a.Now(), a.Pending(), b.Now(), b.Pending())
		}
	}
	if a.Pending() != 0 || b.Pending() != 0 {
		t.Fatalf("pending after drain: engine %d, reference %d", a.Pending(), b.Pending())
	}
	if a.Processed() != b.Processed() {
		t.Fatalf("processed: engine %d, reference %d", a.Processed(), b.Processed())
	}
	if len(*la) != len(*lb) {
		t.Fatalf("fired %d vs reference %d", len(*la), len(*lb))
	}
	for i := range *la {
		if (*la)[i] != (*lb)[i] {
			t.Fatalf("divergence at %d: %+v vs %+v", i, (*la)[i], (*lb)[i])
		}
	}
}

// TestScheduleZeroAlloc pins the zero-allocation steady state: a warmed-up
// engine schedules and fires wheel and heap events without touching the
// allocator.
func TestScheduleZeroAlloc(t *testing.T) {
	e := New()
	var fired int
	h := Handler(func(Time) { fired++ })
	// Warm every wheel bucket (the clock rotates through all of them as it
	// advances) and the heap's backing array.
	for d := Time(0); d < wheelSize; d++ {
		for k := 0; k < 8; k++ {
			e.After(d, h)
		}
	}
	for i := 0; i < 64; i++ {
		e.After(wheelSize+Time(i), h)
	}
	e.Run()

	testutil.MustZeroAllocs(t, "Engine.Schedule+Run (wheel)", func() {
		for i := 0; i < 16; i++ {
			e.After(Time(i%5), h)
		}
		e.Run()
	})
	testutil.MustZeroAllocs(t, "Engine.Schedule+Run (heap)", func() {
		for i := 0; i < 16; i++ {
			e.After(wheelSize+Time(i%31), h)
		}
		e.Run()
	})
}
