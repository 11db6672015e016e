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

echo "==> make race (concurrency-bearing packages under the race detector)"
make race

echo "==> make bench-build (the kernel micro-benchmarks compile and run once)"
make bench-build

echo "==> make bench-smoke (neither the parallel width nor the engine-overlap pipeline may lose to serial; prints the overlap ratio at GOMAXPROCS=2)"
make bench-smoke

echo "==> repo benchmark smoke (every workload runs end to end and passes its own correctness checks)"
quick=$(go run ./benchmark -quick 2>&1) || { echo "$quick" >&2; exit 1; }

echo "==> make chaos (fault injection, recovery, checkpoint restart, supervision, crash matrix)"
make chaos

echo "==> make fuzz-smoke (decoders and the fault DSL must hold up under mutation)"
make fuzz-smoke

echo "==> all checks passed"
