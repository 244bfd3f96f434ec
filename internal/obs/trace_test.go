package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTraceBufferChromeFormat checks that the export is a plain JSON array
// of trace events with the field set chrome://tracing and Perfetto expect.
func TestTraceBufferChromeFormat(t *testing.T) {
	b := NewTraceBuffer()
	b.NameProcess(1, "engine")
	b.NameThread(1, 0, "worker 0")
	start := time.Now()
	b.Complete("job 0", "engine", 1, 0, start, 1500*time.Microsecond, map[string]any{"bench": "FIR"})
	b.CompleteAt("kernel mm", "sim", 2, 0, 10, 250, nil)

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	phases := map[string]int{}
	for i, ev := range events {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		phases[ev["ph"].(string)]++
	}
	if phases["X"] != 2 || phases["M"] != 2 {
		t.Fatalf("phase mix wrong: %v", phases)
	}
	for _, ev := range events {
		if ev["name"] == "job 0" {
			if ev["dur"].(float64) != 1500 {
				t.Fatalf("span duration not in microseconds: %v", ev["dur"])
			}
			args := ev["args"].(map[string]any)
			if args["bench"] != "FIR" {
				t.Fatalf("span args lost: %v", args)
			}
		}
	}
}

// TestTraceBufferConcurrent hammers one buffer from 8 goroutines; -race is
// the actual assertion, the count check proves nothing was lost below cap.
func TestTraceBufferConcurrent(t *testing.T) {
	b := NewTraceBuffer()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.CompleteAt(fmt.Sprintf("g%d", g), "t", 1, g, float64(i), 1, nil)
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != goroutines*perG || b.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want %d and 0", b.Len(), b.Dropped(), goroutines*perG)
	}
}

func TestTraceBufferCapCountsDrops(t *testing.T) {
	b := NewTraceBuffer()
	b.cap = 3
	for i := 0; i < 5; i++ {
		b.CompleteAt("e", "", 1, 0, float64(i), 1, nil)
	}
	if b.Len() != 3 || b.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3 and 2", b.Len(), b.Dropped())
	}
}
