#!/usr/bin/env bash
# paired_bench.sh <workload> <pairs> [parent-ref] [seconds]
#
# Judges the working tree against a parent commit on one workload of the
# repository benchmark. The parent (default HEAD~1) is exported with
# `git archive` into a temporary directory; <pairs> alternating
# parent/head pairs of `go run ./benchmark -workload <workload>` run for
# [seconds] each (default: the benchmark's own 22), the side that goes first
# swapping every pair and both sides of pair i running `-seed i`, so N pairs
# cover N seeds; then `go run ./benchmark -compare parent head` prints
# one PASS / UNRESOLVED / FAIL verdict per end-to-end metric. The exit code
# is non-zero when a run's output checks fail or any verdict is FAIL;
# UNRESOLVED (spread wider than the bound) is printed and tolerated. A ratio
# of runs interleaved on one host needs no quiet host, so CI and the pair
# tables in EXPERIMENTS.md both come from this script.
set -euo pipefail

usage="usage: scripts/paired_bench.sh <workload> <pairs> [parent-ref=HEAD~1] [seconds=22]"
workload=${1:?$usage}
pairs=${2:?$usage}
ref=${3:-HEAD~1}
seconds=${4:-22}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

# run <pair> <side> <dir>: one benchmark run, appended to $tmp/<side>.jsonl,
# printed as one line of its end-to-end metrics.
run() {
	(cd "$3" && go run ./benchmark -workload "$workload" -seed "$1" -seconds "$seconds" -out "$tmp/$2.jsonl") |
		awk -v tag="pair $1 $2" '
			$1 ~ /^(detailed_wall_s|photon_wall_s|photon_accuracy_pct|serve_cold_jobs_per_s|serve_warm_p50_ms|setup_s)$/ {
				line = line " " $1 "=" $2
			}
			END { print tag line }'
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run "$i" parent "$tmp/parent"
		run "$i" head "$root"
	else
		run "$i" head "$root"
		run "$i" parent "$tmp/parent"
	fi
done

cd "$root"
go run ./benchmark -compare "$tmp/parent.jsonl" "$tmp/head.jsonl"
