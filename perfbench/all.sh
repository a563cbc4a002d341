#!/usr/bin/env bash
# Prints every metric, by name and unit, for every workload of
# BENCHMARK.json: one untraced and one traced run each, at the benchmark's
# run length and seed 1. Run from the repository root:
#
#   bash perfbench/all.sh
set -euo pipefail

secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
	for trace in 0 1; do
		echo "== $w --trace $trace"
		bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$secs" --trace "$trace" 2>/dev/null | sed '$d'
	done
done
