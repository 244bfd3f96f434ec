package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func violationText(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteString("\n")
	}
	return b.String()
}

func checkCase(t *testing.T, c *Case) {
	t.Helper()
	vs := RunCase(c)
	if len(vs) == 0 {
		return
	}
	dis := "<unbuildable>"
	if p, err := c.Program(); err == nil {
		dis = p.Disassemble()
	}
	t.Fatalf("%d violations:\n%s\n%s\nserialized case for testdata/:\n%s",
		len(vs), violationText(vs), dis, c.Format())
}

// TestRandomPrograms is the main differential sweep: 500 seeded random
// programs, every one run through the functional emulator, the timing model
// and the full invariant battery. Any violation is a
// simulator bug; the failure message includes the serialized case so it can
// be minimized and committed under testdata/.
func TestRandomPrograms(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		seed := int64(1_000 + i)
		c := RandomCase(fmt.Sprintf("rand%d", i), seed)
		checkCase(t, c)
	}
}

// TestRegressionCases replays every committed case file. These are programs
// that previously exposed (or guard against) engine disagreements.
func TestRegressionCases(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.case"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed regression cases found under testdata/")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ParseCase(string(text))
			if err != nil {
				t.Fatal(err)
			}
			checkCase(t, c)
		})
	}
}

// TestCaseRoundTrip locks the serialization: Format -> ParseCase must
// reproduce the exact instruction stream (same program fingerprint) and the
// same differential verdict.
func TestCaseRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c := RandomCase(fmt.Sprintf("rt%d", seed), seed)
		parsed, err := ParseCase(c.Format())
		if err != nil {
			t.Fatalf("seed %d: parse back failed: %v\n%s", seed, err, c.Format())
		}
		p1, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := parsed.Program()
		if err != nil {
			t.Fatal(err)
		}
		if p1.Fingerprint != p2.Fingerprint {
			t.Fatalf("seed %d: fingerprint changed across round trip:\n%s\nvs\n%s",
				seed, p1.Disassemble(), p2.Disassemble())
		}
		if parsed.Seed != c.Seed || parsed.NumWorkgroups != c.NumWorkgroups ||
			parsed.WarpsPerGroup != c.WarpsPerGroup || parsed.InWords != c.InWords ||
			parsed.OutWordsPerWarp != c.OutWordsPerWarp || parsed.AtomicWords != c.AtomicWords ||
			parsed.LDSBytes != c.LDSBytes {
			t.Fatalf("seed %d: geometry changed across round trip: %+v vs %+v", seed, parsed, c)
		}
	}
}

// TestParseCaseRejectsGarbage pins the parser's failure modes.
func TestParseCaseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a case",
		caseHeader + "\nend\n", // geometry missing -> zero sizes rejected
		caseHeader + "\ngrid 1 1\nsegs 16 64 4\nlds 0\ninst bogus_op _ _ _ _ 0 0\nend\n",
		caseHeader + "\ngrid 1 1\nsegs 17 64 4\nlds 0\ninst s_endpgm _ _ _ _ 0 0\nend\n", // non-pow2
		caseHeader + "\ngrid 1 1\nsegs 16 64 4\nlds 0\ninst s_endpgm _ _ _ _ 0 0\n",      // no end
	} {
		if _, err := ParseCase(bad); err == nil {
			t.Fatalf("ParseCase accepted %q", bad)
		}
	}
}

// TestDecodeCaseDeterministic: the same fuzz input must decode to the same
// program, and exhausted inputs still yield runnable cases.
func TestDecodeCaseDeterministic(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		[]byte("photon"),
		{0xff, 0x01, 0x7a, 0x33, 0x90, 0x04, 0xde, 0xad, 0xbe, 0xef},
	}
	for _, in := range inputs {
		c1 := DecodeCase(in)
		c2 := DecodeCase(in)
		p1, err := c1.Program()
		if err != nil {
			t.Fatalf("input %x: %v", in, err)
		}
		p2, err := c2.Program()
		if err != nil {
			t.Fatal(err)
		}
		if p1.Fingerprint != p2.Fingerprint || c1.Seed != c2.Seed {
			t.Fatalf("input %x decoded nondeterministically", in)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "diff", Detail: "warp 0 pc mismatch"}
	if v.String() != "diff: warp 0 pc mismatch" {
		t.Fatalf("Violation.String = %q", v.String())
	}
}
