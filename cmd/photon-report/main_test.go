package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// results reads the committed sweep artifacts under results/.
func results(names ...string) []string {
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join("..", "..", "results", n)
	}
	return paths
}

// The two tables on the committed artifacts, as photon-report printed them
// before the strict reader: reading them through one codec moves no byte.
const (
	wantSummaries = `experiment runner          rows  mean_err%   max_err%  geo_speedup  max_spdup
baselines  photon             6      13.10      27.26         3.31      10.75
baselines  pka                6      48.32      87.37         8.38      18.30
baselines  tbpoint            6      16.28      39.46         5.93      12.54
extensions photon             8       0.98       2.07         1.16       2.31
fig16      photon             8       1.25       5.41         1.86       3.38
transformer kernel-sampling     3       0.00       0.00         1.36       1.63
transformer photon             3       0.00       0.00         1.15       1.43
`
	wantAccuracy = `bench      runner          kernels     full       bb     warp   kmatch mean_err%  max_err%
Xfmr-block kernel-sampling       20        8        0        0       12      0.04      0.55
Xfmr-block photon               20        8        0        0       12      0.04      0.55
Xfmr-L4    kernel-sampling       80        8        0        0       72      0.04      0.55
Xfmr-L4    photon               80        8        0        0       72      0.04      0.55
TrainStep-b4 kernel-sampling       15       15        0        0        0      0.00      0.00
TrainStep-b4 photon               15       15        0        0        0      0.00      0.00
`
)

func TestReportTablesOnCommittedResults(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"summaries", results("baselines.jsonl", "extensions.jsonl", "fig16.jsonl", "transformer.jsonl"), wantSummaries},
		{"accuracy", append([]string{"-accuracy"}, results("transformer.accuracy.jsonl")...), wantAccuracy},
	} {
		var out, errBuf bytes.Buffer
		if code := realMain(tc.args, &out, &errBuf); code != 0 {
			t.Fatalf("%s: exit = %d (stderr: %s)", tc.name, code, errBuf.String())
		}
		if out.String() != tc.want {
			t.Errorf("%s table:\n%s\nwant:\n%s", tc.name, out.String(), tc.want)
		}
	}
}

// A ledger is not a -json file and a -json file is not a ledger: either
// mix-up exits 1 and names the file instead of printing a table of the
// wrong rows.
func TestReportRejectsTheOtherArtifact(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"ledger without -accuracy", results("transformer.accuracy.jsonl")},
		{"results with -accuracy", append([]string{"-accuracy"}, results("transformer.jsonl")...)},
	} {
		var out, errBuf bytes.Buffer
		if code := realMain(tc.args, &out, &errBuf); code != 1 {
			t.Errorf("%s: exit = %d, want 1 (stdout: %s)", tc.name, code, out.String())
		}
		path := tc.args[len(tc.args)-1]
		if !strings.Contains(errBuf.String(), path) {
			t.Errorf("%s: stderr %q does not name %s", tc.name, errBuf.String(), path)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed a table:\n%s", tc.name, out.String())
		}
	}
}
