#!/bin/sh
# bench.sh — record a cmd/mdmbench artifact. Picks the next free
# BENCH_<n>.json in the repo root and writes the report there: ns/op and
# speedup at pool widths 1/2/4/8 (interleaved) for the machine force
# evaluation (+ ns per pair), the WINE-2 quantize → DFT → IDFT pass (+ ns per
# particle·wave) and the j-set build, the host potential walk's ns per half
# pair, and the weakScaling family (the spatial decomposition at 64
# ions/rank for 1/8/27 ranks, every rung with a 0.5 Å Verlet skin: ns/step,
# wall and per-particle efficiency; -weak-steps 0 skips it). The artifact
# records gomaxprocs and num_cpu, so ratios taken at widths the host had no
# cores for read n/a.
#
# The record is timing only. Wall time between two trees is judged by
# `go run ./benchmark`; allocations, MPI traffic and accuracy by go test.
#
# Usage: scripts/bench.sh [extra mdmbench flags, e.g. -reps 8]
set -eu

cd "$(dirname "$0")/.."

n=0
while [ -e "BENCH_${n}.json" ]; do
    n=$((n + 1))
done
out="BENCH_${n}.json"

echo "==> go run ./cmd/mdmbench -o $out $*"
go run ./cmd/mdmbench -o "$out" "$@"
