#!/bin/sh
# bench.sh — record a benchmark artifact for the intra-board parallelism
# layer. Picks the next free BENCH_<n>.json in the repo root and writes the
# cmd/mdmbench report there (ns/op, allocs/op and speedup at pool widths
# 1/2/4/8 for the machine force evaluation, the WINE-2 DFT/IDFT pair, the
# j-set build and the Figure-2 MD step with the concurrent pipeline off, on,
# and on with a Verlet skin), plus the interleaved pipeline-off/on headline
# comparison at the engine-balanced Ewald splitting, plus the weakScaling
# family (the spatial decomposition at 64 ions/rank for 1/8/27 ranks with
# per-tag rebuild and reuse traffic; -weak-steps 0 skips it). The artifact
# records gomaxprocs and num_cpu, so baselines taken on single-core hosts are
# recognizable as serial measurements.
#
# Usage: scripts/bench.sh [extra mdmbench flags, e.g. -iters 20]
#        scripts/bench.sh -compare BENCH_a.json BENCH_b.json
#
# The -compare form renders a regression summary between two recorded
# artifacts (ns/op delta per configuration, alloc growth, pipeline speedup)
# and exits 1 when the new report regresses beyond the threshold.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-compare" ]; then
    shift
    exec go run ./cmd/mdmbench -compare "$@"
fi

n=0
while [ -e "BENCH_${n}.json" ]; do
    n=$((n + 1))
done
out="BENCH_${n}.json"

echo "==> go run ./cmd/mdmbench -o $out $*"
go run ./cmd/mdmbench -o "$out" "$@"
