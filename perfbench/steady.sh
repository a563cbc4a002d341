#!/usr/bin/env bash
# Steadiness check: runs every workload of BENCHMARK.json ten times with
# different seeds, in two independent sets, records each run under
# .bench_build/steady, and writes the comparison of the two sets
# (quartiles, extremes, spread and median drift per end-to-end metric) as
# a Markdown noise record. Run from the repository root:
#
#   bash perfbench/steady.sh > steady.md
set -euo pipefail

dir=.bench_build/steady
wls=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$dir"

for set in 1 2; do
	rec=$dir/set$set.jsonl
	: >"$rec"
	for i in $(seq 1 10); do
		seed=$((set * 1000 + i))
		for w in $wls; do
			bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 --record "$rec" \
				2>/dev/null | tail -n 1 >&2
		done
	done
done
bash perfbench/run.sh compare "$dir/set1.jsonl" "$dir/set2.jsonl"
