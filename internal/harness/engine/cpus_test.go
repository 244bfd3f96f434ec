package engine

import (
	"sync"
	"testing"
)

func TestCPUsTakeOverdraws(t *testing.T) {
	c := NewCPUs(1)
	c.Take()
	c.Take()
	if n := c.Free(); n != -1 {
		t.Fatalf("count %d after two Takes of one token, want -1", n)
	}
	c.Give()
	c.Give()
	if n := c.Free(); n != 1 || c.Size() != 1 {
		t.Fatalf("count %d of size %d after two Gives, want 1 of 1", n, c.Size())
	}
}

// Eight goroutines take and give tokens at once: the count never exceeds
// the pool's size nor falls below it by more than the takers, and it ends
// where it started.
func TestCPUsConserveTokens(t *testing.T) {
	const size, goroutines, rounds = 3, 8, 2000
	c := NewCPUs(size)
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				c.Take()
				if n := c.Free(); n >= size || n < size-goroutines {
					t.Errorf("count %d while this goroutine holds a token of %d", n, size)
				}
				c.Give()
			}
		}()
	}
	wg.Wait()
	if n := c.Free(); n != size {
		t.Fatalf("count %d after the hammer, want %d", n, size)
	}
}
