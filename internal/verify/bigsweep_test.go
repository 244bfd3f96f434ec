package verify

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestBigSweep is the long random-program sweep, off by default:
// VERIFY_BIG_SWEEP=n checks n more programs at seeds 5 000 000 onward. A
// failure prints the serialized case; committed under testdata/, it is
// replayed by TestRegressionCases.
func TestBigSweep(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("VERIFY_BIG_SWEEP"))
	if n == 0 {
		t.Skip("set VERIFY_BIG_SWEEP=n")
	}
	for i := 0; i < n; i++ {
		seed := int64(5_000_000 + i)
		c := RandomCase(fmt.Sprintf("sweep%d", i), seed)
		if vs := RunCase(c); len(vs) > 0 {
			t.Fatalf("seed %d:\n%s\ncase:\n%s", seed, violationText(vs), c.Format())
		}
	}
}
