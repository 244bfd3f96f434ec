// Command photon-report summarizes JSON-lines results produced by
// photon-bench -json: per (experiment, runner) it prints the paper's
// headline aggregates — mean/max sampling error and geometric-mean/max
// wall-time speedup.
//
//	photon-bench -exp fig13 -json fig13.jsonl
//	photon-report fig13.jsonl [more.jsonl ...]
//
// With -accuracy the inputs are per-kernel sampling-accuracy ledgers
// (photon-bench -accuracy-out, or GET /v1/jobs/{id}/accuracy from
// photon-serve) and the report shows, per (bench, runner), where the
// three-tier sampler spent its kernels and how far predictions drifted
// from the detailed baseline.
//
//	photon-bench -exp fig13 -quick -accuracy-out accuracy.jsonl
//	photon-report -accuracy accuracy.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"photon/internal/buildinfo"
	"photon/internal/harness"
)

func main() {
	var (
		accuracy = flag.Bool("accuracy", false, "inputs are per-kernel accuracy ledgers (photon-bench -accuracy-out)")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("photon-report"))
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: photon-report [-accuracy] <results.jsonl> [...]")
		os.Exit(2)
	}
	if *accuracy {
		var ledger []harness.AccuracyRecord
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "photon-report: %v\n", err)
				os.Exit(1)
			}
			recs, err := harness.ReadAccuracyRecords(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "photon-report: %s: %v\n", path, err)
				os.Exit(1)
			}
			ledger = append(ledger, recs...)
		}
		harness.PrintAccuracySummaries(os.Stdout, harness.SummarizeAccuracy(ledger))
		return
	}

	var all []harness.Record
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "photon-report: %v\n", err)
			os.Exit(1)
		}
		recs, err := harness.ReadRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "photon-report: %s: %v\n", path, err)
			os.Exit(1)
		}
		all = append(all, recs...)
	}
	harness.PrintSummaries(os.Stdout, harness.Summarize(all))
}
