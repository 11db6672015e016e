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

echo "==> doc budgets (DESIGN.md and EXPERIMENTS.md may shrink, never grow)"
# Each budget is the file's size when the ratchet was set; lower it when a
# rewrite shrinks the file.
for budget in DESIGN.md:44858 EXPERIMENTS.md:35708; do
    doc=${budget%%:*}
    size=$(wc -c < "$doc")
    if [ "$size" -gt "${budget##*:}" ]; then
        echo "$doc is $size B, over its ${budget##*:} B budget: make room before adding" >&2
        exit 1
    fi
done

echo "==> doc citations (every DESIGN §n and EXPERIMENTS \"title\" cited outside CHANGES.md names a heading)"
# The citing text is the Go files, the current docs and the skill notes, with
# line breaks and comment markers folded so a citation may wrap. CHANGES.md is
# history: it cites sections as they were.
cited=$( { find . -name '*.go' -not -path './.git/*' -exec cat {} +
    find . -path '*/skills/*.md' -exec cat {} +
    cat README.md ROADMAP.md DESIGN.md EXPERIMENTS.md; } |
    tr '\n\t' '  ' | sed -e 's#  *// *# #g' -e 's/  */ /g')
sections=$(sed -n -E 's/^#+ ([0-9]+(\.[0-9]+)*)\.? .*/\1/p' DESIGN.md)
for n in $(printf '%s\n' "$cited" | grep -oE 'DESIGN(\.md)?`?,? (§ ?[0-9]+(\.[0-9]+)*(, | / | and | or )?)+' |
    grep -oE '[0-9]+(\.[0-9]+)*' | sort -u); do
    if ! printf '%s\n' "$sections" | grep -qx "$n"; then
        echo "DESIGN §$n is cited but DESIGN.md has no such heading" >&2
        exit 1
    fi
done
titles=$( { sed -n -E 's/^#+ (.*)/\1/p' EXPERIMENTS.md
    tr '\n' ' ' < EXPERIMENTS.md | grep -oE '\*\*[^*]+\*\*' | sed -e 's/^\*\*//' -e 's/\*\*$//'; } )
printf '%s\n' "$cited" | grep -oE 'EXPERIMENTS(\.md)?:? "[^" ][^"]*"' | sed -e 's/^[^"]*"//' -e 's/"$//' | sort -u |
while IFS= read -r title; do
    if ! printf '%s\n' "$titles" | awk -v t="$title" 'index($0, t) == 1 { found = 1 } END { exit !found }'; then
        echo "EXPERIMENTS \"$title\" is cited but EXPERIMENTS.md has no such heading or bold label" >&2
        exit 1
    fi
done

echo "==> go vet ./..."
go vet ./...

echo "==> GOARCH=386 go vet ./... (the tree builds where int is 32 bits)"
GOARCH=386 go vet ./...

echo "==> fused float ops (the simulated datapaths, their table builder, the host words they are fed, the cell index, the engine body, the integrator and the vector algebra round every step: none on the architectures that fuse)"
# The Go spec lets a compiler fuse x*y + z into one rounding; an explicit
# conversion forbids it. The compiler does not fuse on amd64, so cross-compile
# and read the assembly the fusing back ends emit. A package's listing
# includes what it inlines (wine2: vec's wrap, ewald's wave energy; md: vec's
# Add(Scale(…)) in the integrator; core: ewald's wave and self energies).
for arch in arm64 ppc64le s390x riscv64; do
    if ! asm=$(GOARCH=$arch go build -gcflags=mdm/internal/mdgrape2=-S -gcflags=mdm/internal/funceval=-S \
        -gcflags=mdm/internal/wine2=-S -gcflags=mdm/internal/md=-S -gcflags=mdm/internal/vec=-S \
        -gcflags=mdm/internal/cellindex=-S -gcflags=mdm/internal/core=-S \
        ./internal/mdgrape2 ./internal/funceval ./internal/wine2 ./internal/md ./internal/vec \
        ./internal/cellindex ./internal/core 2>&1); then
        echo "$asm" >&2
        exit 1
    fi
    for pkg in mdgrape2 funceval wine2 md vec cellindex core; do
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

echo "==> make bench-smoke (the parallel width may not lose to workers=1; prints the speed-up at GOMAXPROCS=2)"
make bench-smoke

echo "==> repo benchmark smoke (every workload runs end to end and passes its own correctness checks)"
quick=$(go run ./benchmark -quick 2>&1) || { echo "$quick" >&2; exit 1; }

echo "==> make fuzz-smoke (decoders and the fault DSL must hold up under mutation)"
make fuzz-smoke

echo "==> all checks passed"
