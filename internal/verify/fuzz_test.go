package verify

import "testing"

// FuzzEmuProgram is the native-fuzzing entry into the differential harness:
// arbitrary bytes decode (via DecodeCase's structural generator) into a
// race-free runnable program, which then goes through the full functional-vs-
// timing and conservation battery. The committed corpus under
// testdata/fuzz/FuzzEmuProgram runs as part of plain `go test`; CI
// additionally explores with -fuzz.
func FuzzEmuProgram(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("photon"))
	f.Add([]byte{0xff, 0x01, 0x7a, 0x33, 0x90, 0x04, 0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := DecodeCase(data)
		if vs := RunCase(c); len(vs) > 0 {
			t.Fatalf("%d violations:\n%s\ncase:\n%s", len(vs), violationText(vs), c.Format())
		}
	})
}
