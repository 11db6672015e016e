#!/bin/sh
# check.sh — the repository's full verification gate, as run by `make check`
# and CI. Every step must pass; the script stops at the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt"
unformatted=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> mdmvet (full analyzer suite incl. stepflow determinism checks, baseline-filtered)"
go run ./cmd/mdmvet -baseline mdmvet.baseline ./...

echo "==> mdmvet -audit (every //mdm:* suppression must carry a justification)"
go run ./cmd/mdmvet -audit >/dev/null

echo "==> go test ./..."
go test ./...

echo "==> go test -race (concurrency-bearing packages)"
go test -race ./internal/fault/... ./internal/mpi/... ./internal/core/... \
    ./internal/domain/... \
    ./internal/parallelize/... ./internal/wine2/... ./internal/mdgrape2/... \
    ./internal/cellindex/... ./internal/supervise/... ./internal/store/... \
    ./internal/lifecycle/... ./internal/serve/...
go test -race -run 'Commit|DurableOnReturn|Turnover|CrashMatrix|Journal|Interrupt|Resume' .

echo "==> bench smoke (neither the parallel widths nor the engine-overlap pipeline may lose to serial; prints the overlap ratio at GOMAXPROCS=2)"
GOMAXPROCS=2 go run ./cmd/mdmbench -smoke -iters 3 -reps 2

echo "==> batch throughput smoke (K=16 batched must not be slower than sequential at the same potential cadence, >=0.95x, single core)"
GOMAXPROCS=1 go run ./cmd/mdmbench -batch-smoke

echo "==> weak-scaling smoke (reuse steps stream ghost positions only; per-particle cost flat at 8 ranks)"
go run ./cmd/mdmbench -weak-smoke

echo "==> bench artifact regression gate (BENCH_7 -> BENCH_8 on the recorded families)"
go run ./cmd/mdmbench -compare -threshold 0.2 BENCH_7.json BENCH_8.json

echo "==> repo benchmark smoke (every workload runs end to end and passes its own correctness checks)"
quick=$(go run ./benchmark -quick 2>&1) || { echo "$quick" >&2; exit 1; }

echo "==> chaos suite (fault injection, recovery, checkpoint restart, supervision, crash matrix)"
go test -run 'Chaos|Resilient|FaultHook|RunProtocol|CheckpointFile|CheckpointTyped|Watchdog|Breaker|Journal|Supervise|Interrupt|CrashMatrix|Commit|DurableOnReturn|Turnover|Serve' \
    ./internal/core/... ./internal/wine2/... ./internal/mdgrape2/... \
    ./internal/md/... ./internal/supervise/... ./internal/serve/... \
    ./cmd/mdmsim/... ./cmd/mdmserve/... .

echo "==> fuzz smoke (decoders and the fault DSL must hold up under mutation)"
go test ./internal/fault/ -run '^$' -fuzz FuzzParseScenario -fuzztime 3s
go test ./internal/md/ -run '^$' -fuzz FuzzReadCheckpoint -fuzztime 3s
go test ./internal/supervise/ -run '^$' -fuzz FuzzReadJournal -fuzztime 3s
go test ./internal/store/ -run '^$' -fuzz FuzzScanRunDir -fuzztime 3s

echo "==> all checks passed"
