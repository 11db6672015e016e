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

echo "==> fused float ops (the simulated float32 datapath and its table builder round every step: none on the architectures that fuse)"
# The Go spec lets a compiler fuse x*y + z into one rounding; an explicit
# conversion forbids it. The compiler does not fuse on amd64, so cross-compile
# and read the assembly the fusing back ends emit.
for arch in arm64 ppc64le s390x riscv64; do
    if ! asm=$(GOARCH=$arch go build -gcflags=mdm/internal/mdgrape2=-S -gcflags=mdm/internal/funceval=-S \
        ./internal/mdgrape2 ./internal/funceval 2>&1); then
        echo "$asm" >&2
        exit 1
    fi
    for pkg in mdgrape2 funceval; do
        if ! echo "$asm" | grep -q "^mdm/internal/$pkg\..* STEXT"; then
            echo "no $arch assembly listed for internal/$pkg" >&2
            exit 1
        fi
    done
    fused=$(echo "$asm" | grep -E '\bFN?M(ADD|SUB)[SD]?\b' || true)
    if [ -n "$fused" ]; then
        echo "fused float ops on $arch (write the rounding down: float32(x*y) + z):" >&2
        echo "$fused" >&2
        exit 1
    fi
done

echo "==> mdmvet (full analyzer suite incl. stepflow determinism checks)"
go run ./cmd/mdmvet ./...

echo "==> mdmvet -audit (every //mdm:* suppression must carry a justification)"
go run ./cmd/mdmvet -audit >/dev/null

echo "==> go test ./... (incl. fault injection, recovery, checkpoint restart, supervision, crash matrix)"
go test ./...

echo "==> make race -run selectors (every alternative names a test in the packages it runs over)"
# Join the recipes' continuation lines, keep the `go test ... -run REGEX PKGS`
# commands, and list each command's tests once.
make -n race | sed -e ':a' -e '/\\$/N' -e 's/\\\n//' -e 'ta' | grep -e ' -run ' |
while IFS= read -r cmd; do
    regex=$(echo "$cmd" | sed -e "s/.* -run '\{0,1\}\([^' ]*\)'\{0,1\} .*/\1/")
    pkgs=$(echo "$cmd" | sed -e "s/.* -run '\{0,1\}[^' ]*'\{0,1\} //")
    # shellcheck disable=SC2086 # pkgs is a word list
    tests=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)')
    for alt in $(echo "$regex" | tr '|' ' '); do
        if ! echo "$tests" | grep -qE -e "$alt"; then
            echo "-run alternative '$alt' matches no test in: $pkgs" >&2
            exit 1
        fi
    done
done

echo "==> make race (concurrency-bearing packages under the race detector)"
make race

echo "==> make bench-build (the kernel micro-benchmarks compile and run once)"
make bench-build

echo "==> make bench-smoke (neither the parallel width nor the engine-overlap pipeline may lose to serial; prints the overlap ratio at GOMAXPROCS=2)"
make bench-smoke

echo "==> repo benchmark smoke (every workload runs end to end and passes its own correctness checks)"
quick=$(go run ./benchmark -quick 2>&1) || { echo "$quick" >&2; exit 1; }

echo "==> make fuzz-smoke (decoders and the fault DSL must hold up under mutation)"
make fuzz-smoke

echo "==> all checks passed"
