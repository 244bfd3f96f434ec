package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func(now Time) { got = append(got, now) })
	}
	end := e.Run()
	if end != 5 {
		t.Fatalf("end time = %d, want 5", end)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("executed %d events, want 5", len(got))
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func(Time) { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("tie-broken events out of scheduling order: %v", got)
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(10, func(now Time) {
		e.Schedule(3, func(now Time) {
			if now != 10 {
				t.Errorf("past event fired at %d, want clamp to 10", now)
			}
			fired = true
		})
	})
	e.Run()
	if !fired {
		t.Fatal("clamped event never fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	count := 0
	var chain func(now Time)
	chain = func(now Time) {
		count++
		if count < 100 {
			e.After(2, chain)
		}
	}
	e.Schedule(0, chain)
	end := e.Run()
	if count != 100 {
		t.Fatalf("chain ran %d times, want 100", count)
	}
	if end != 198 {
		t.Fatalf("end = %d, want 198", end)
	}
}

func TestStep(t *testing.T) {
	e := New()
	n := 0
	e.Schedule(1, func(Time) { n++ })
	e.Schedule(2, func(Time) { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestProcessedAndPending(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func(Time) {})
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}

// Property: for any random schedule, events fire in nondecreasing time order
// and every event fires exactly once.
func TestPropertyRandomSchedulesOrdered(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []Time
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(1000))
			e.Schedule(at, func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
