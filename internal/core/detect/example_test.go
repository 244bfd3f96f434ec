package detect_test

import (
	"fmt"

	"photon/internal/core/detect"
)

// A basic-block type whose execution time has settled produces a
// least-squares slope of 1 over its (issue, retire) pairs and passes the
// 2n-window mean guard — Photon's stability criterion.
func Example() {
	d := detect.New(64, 0.03)
	issue := int64(0)
	for i := 0; i < 128; i++ {
		const duration = 500 // cycles per execution, stationary
		d.Add(issue, issue+duration)
		issue += 40
	}
	a, _ := d.Slope()
	fmt.Printf("slope=%.2f stable=%v mean=%.0f\n", a, d.Stable(), d.MeanDuration())
	// Output: slope=1.00 stable=true mean=500
}
