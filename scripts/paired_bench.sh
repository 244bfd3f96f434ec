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
# one PASS / UNRESOLVED / FAIL verdict per end-to-end metric, and the ratio
# chain follows: per metric, the median of the per-pair head/parent ratios
# and how many pairs the head won. The exit code is non-zero when a run's
# output checks fail or any verdict is FAIL; UNRESOLVED (spread wider than
# the bound) is printed and tolerated. A ratio of runs interleaved on one
# host needs no quiet host, so CI and the pair tables in EXPERIMENTS.md both
# come from this script.
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
			END { print tag line }' | tee -a "$tmp/runs.txt"
}

# ratios <runs>: the ratio chain of the per-run lines. A pair counts as won
# when the head is strictly better: lower for *_wall_s, *_ms and setup_s,
# higher for *_per_s and *_pct; a tie counts for neither side.
ratios() {
	awk '
		{
			for (f = 4; f <= NF; f++) {
				split($f, kv, "=")
				val[$2, $3, kv[1]] = kv[2]
				if (!(kv[1] in seen)) {
					seen[kv[1]] = 1
					order[++m] = kv[1]
				}
			}
			if ($2 + 0 > n) n = $2 + 0
		}
		END {
			print "ratio chain (head/parent): median per-pair ratio, pairs won by head"
			for (k = 1; k <= m; k++) {
				name = order[k]
				lower = name ~ /(_wall_s|_ms)$|^setup_s$/
				c = 0
				won = 0
				for (i = 1; i <= n; i++) {
					p = val[i, "parent", name]
					h = val[i, "head", name]
					if (p == "" || h == "" || p + 0 == 0) continue
					r[++c] = h / p
					if (lower ? h + 0 < p + 0 : h + 0 > p + 0) won++
				}
				if (c == 0) continue
				for (i = 2; i <= c; i++) { # insertion sort
					x = r[i]
					for (j = i - 1; j >= 1 && r[j] > x; j--) r[j + 1] = r[j]
					r[j + 1] = x
				}
				med = c % 2 ? r[(c + 1) / 2] : (r[c / 2] + r[c / 2 + 1]) / 2
				printf "  %-22s %.4f  %d/%d pairs\n", name, med, won, c
			}
		}' "$1"
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
status=0
go run ./benchmark -compare "$tmp/parent.jsonl" "$tmp/head.jsonl" || status=$?
ratios "$tmp/runs.txt"
exit "$status"
