package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/testutil"
)

// Regression test for the exit-code bug: a failing deferred profile write
// used to leave the exit code 0.
func TestExitNonZeroWhenProfileWriteFails(t *testing.T) {
	badPath := filepath.Join(t.TempDir(), "missing-dir", "mem.prof")
	var out, errBuf bytes.Buffer
	// Every figure simulates for seconds, so pair the failing profile with
	// an unknown -exp: the run short-circuits cheaply (exit 2) and the
	// profile stop still executes and reports on stderr. The regression
	// being guarded: stopProfiles failures must never leave the code at 0.
	code := realMain([]string{"-exp", "nope", "-memprofile", badPath}, &out, &errBuf)
	if code == 0 {
		t.Fatalf("exit code = 0, want non-zero\nstderr: %s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "profiles") {
		t.Errorf("stderr missing profile failure: %q", errBuf.String())
	}
}

func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown experiment", []string{"-exp", "fig99"}, 2},
		{"unknown arch", []string{"-arch", "h100"}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"version", []string{"-version"}, 0},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if code := realMain(tc.args, &out, &errBuf); code != tc.want {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.want, errBuf.String())
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-version"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out.String(), "photon-observe ") {
		t.Errorf("-version output = %q", out.String())
	}
}

// TestAllIsTheConcatenationOfTheFigures: -exp all shares simulated inputs
// between figures (Figures 2-4 print from one pair of detailed runs), and
// that sharing must not show: its stdout is the seven single-figure runs'
// stdout, in order.
func TestAllIsTheConcatenationOfTheFigures(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("simulates every observation figure twice")
	}
	run := func(exp string) string {
		var out, errBuf bytes.Buffer
		if code := realMain([]string{"-exp", exp}, &out, &errBuf); code != 0 {
			t.Fatalf("-exp %s: exit = %d (stderr: %s)", exp, code, errBuf.String())
		}
		return out.String()
	}
	var singles strings.Builder
	for _, fig := range []string{"fig1", "fig2", "fig3", "fig4", "fig6", "fig8", "fig11"} {
		singles.WriteString(run(fig))
	}
	if all := run("all"); all != singles.String() {
		t.Fatalf("-exp all differs from the concatenated single-figure runs:\n--- all ---\n%s--- singles ---\n%s", all, singles.String())
	}
}
