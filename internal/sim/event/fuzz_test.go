package event

import "testing"

// FuzzEngineVsRef decodes arbitrary bytes into a schedule — initial events
// plus children that handlers schedule re-entrantly from their own fire time —
// and runs it on Engine and on RefEngine, which must agree on the fire log,
// the final clock and the number of events processed. The committed corpus
// under testdata/fuzz/FuzzEngineVsRef runs as part of plain `go test`; CI
// additionally explores with -fuzz.
func FuzzEngineVsRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := New(), NewRef()
		got, want := fuzzSchedule(a, data), fuzzSchedule(b, data)
		if len(got) != len(want) {
			t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("divergence at event %d: got id=%d@%d, reference id=%d@%d",
					i, got[i].id, got[i].now, want[i].id, want[i].now)
			}
		}
		if a.Now() != b.Now() || a.Processed() != b.Processed() {
			t.Fatalf("engine ends at %d after %d events, reference at %d after %d",
				a.Now(), a.Processed(), b.Now(), b.Processed())
		}
	})
}

// fuzzOffset maps one byte to a scheduling offset. The low two bits pick a
// range so every input reaches the cases the wheel adds to a plain heap:
// past times that clamp to now and zero delay, offsets straddling wheelSize
// (wheelSize-8 … wheelSize+7, exactly wheelSize included), mid-range offsets
// that fall on either side of it, and far heap offsets.
func fuzzOffset(b byte) Time {
	v := Time(b >> 2)
	switch b & 3 {
	case 0:
		return v - 8
	case 1:
		return wheelSize - 8 + v%16
	case 2:
		return v * 8
	default:
		return v * 64
	}
}

// fuzzSchedule drives e with the schedule data encodes and returns its fire
// log. The first byte sets the number of initial events, one byte each gives
// their offsets; when an event fires below the depth limit, the next byte
// gives its child count (0–3) and one byte per child its offset from now.
// Bytes are consumed in fire order, so two engines that fire identically
// build identical cascades; an exhausted input reads as zeros.
func fuzzSchedule(e scheduler, data []byte) []fireRecord {
	const maxDepth = 4
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var log []fireRecord
	nextID := 0
	var spawn func(depth int) Handler
	spawn = func(depth int) Handler {
		id := nextID
		nextID++
		return func(now Time) {
			log = append(log, fireRecord{id: id, now: now})
			if depth == maxDepth {
				return
			}
			for k := next() % 4; k > 0; k-- {
				e.Schedule(now+fuzzOffset(next()), spawn(depth+1))
			}
		}
	}
	for n := int(next()%32) + 1; n > 0; n-- {
		e.Schedule(fuzzOffset(next()), spawn(0))
	}
	e.Run()
	return log
}
