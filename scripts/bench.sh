#!/bin/sh
# bench.sh — record a cmd/mdmbench artifact. Picks the next free
# BENCH_<n>.json in the repo root and writes the report there: ns/op,
# allocs/op and speedup at pool widths 1/2/4/8 (interleaved) for the machine
# force evaluation (+ ns per pair), the WINE-2 quantize → DFT → IDFT pass
# (+ ns per particle·wave) and the j-set build, the host potential walk's ns
# per half pair, and the weakScaling family (the spatial decomposition at 64
# ions/rank for 1/8/27 ranks, every rung with a 0.5 Å Verlet skin: per-tag
# rebuild and reuse traffic and both steps' force error against the reference
# Ewald; -weak-steps 0 skips it), and the machine's error stage by stage
# against float64 over its own pair and wave sets (the accuracy object). The
# artifact records gomaxprocs and num_cpu, so ratios taken at widths the host
# had no cores for read n/a.
#
# Wall time between two trees is judged by `go run ./benchmark`, not here.
#
# Usage: scripts/bench.sh [extra mdmbench flags, e.g. -reps 8]
#        scripts/bench.sh -compare BENCH_a.json BENCH_b.json
#
# The -compare form sets two artifacts side by side and exits 1 when
# allocs/op, a tag's traffic bytes, the decomposition's force error or the
# machine's real / wave stage error grew;
# ns/op deltas are printed as information only, so one recording suffices.
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
