#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload qp-flood --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare set-a.jsonl set-b.jsonl
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

(
	cd perfbench
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOENV=off GOTOOLCHAIN=local \
		GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/home/go GOFLAGS= \
		go build -o "$out/perfbench" .
)

# One P from process start, so the runtime sizes its GC workers for it.
GOMAXPROCS=1 exec "$out/perfbench" "$@"
