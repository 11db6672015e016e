# Standard entry points; `make check` is the gate CI runs. The -race package
# list and -run regexes, the fuzz targets, the kernel micro-benchmark
# packages and the smoke gate's flags live here only: scripts/check.sh calls
# `make race` / `make fuzz-smoke` / `make bench-build` / `make bench-smoke`,
# and fails when an alternative of a `make race` -run regex names no test in
# its packages. The -cpu 1,2,4 lines run the pool-width tests and the
# potential's layout independence with more Go threads than a two-core runner
# has cores, the condition a descheduled worker comes from. The
# fault-injection, recovery, supervision and crash-matrix tests need no
# target of their own: `go test ./...` runs every one of them.

GO ?= go

.PHONY: all build test bench bench-build bench-json bench-smoke vet mdmvet audit race fuzz-smoke check fmt

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every micro-benchmark, beside the kernel it times. Wall time between two
# trees is argued from `go run ./benchmark`, not from these.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Compile the kernel micro-benchmarks and run each once: `go test ./...` does
# neither, so a renamed entry point or a broken set-up would otherwise rot.
bench-build:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/fixed ./internal/funceval \
		./internal/wine2 ./internal/cellindex ./internal/mdgrape2 ./internal/core

bench-json:
	sh scripts/bench.sh

bench-smoke:
	GOMAXPROCS=2 $(GO) run ./cmd/mdmbench -smoke -iters 3 -reps 2

vet:
	$(GO) vet ./...

mdmvet:
	$(GO) run ./cmd/mdmvet ./...

audit:
	$(GO) run ./cmd/mdmvet -audit

race:
	$(GO) test -race ./internal/fault/... ./internal/mpi/... ./internal/core/... \
		./internal/domain/... \
		./internal/parallelize/... ./internal/wine2/... ./internal/mdgrape2/... \
		./internal/cellindex/... ./internal/supervise/... ./internal/store/... \
		./internal/lifecycle/... ./internal/serve/...
	$(GO) test -race -cpu 1,2,4 -run 'AcrossWorkers|Run|Shards|Lend|Panic' ./internal/parallelize \
		./internal/mdgrape2 ./internal/wine2 ./internal/cellindex
	$(GO) test -race -cpu 1,2,4 -count 5 -run 'PotentialExact|Lend' ./internal/core
	$(GO) test -race -run 'Commit|DurableOnReturn|CrashMatrix|Journal|Interrupt|Resume|Restart' .
	$(GO) test -race -short -run BitIdentityLattice .

fuzz-smoke:
	$(GO) test ./internal/fault/ -run '^$$' -fuzz FuzzParseScenario -fuzztime 3s
	$(GO) test ./internal/md/ -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 3s
	$(GO) test ./internal/supervise/ -run '^$$' -fuzz FuzzReadJournal -fuzztime 3s
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzScanRunDir -fuzztime 3s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzSubmitSpec -fuzztime 3s
	$(GO) test ./internal/domain/ -run '^$$' -fuzz FuzzBlocks -fuzztime 3s
	$(GO) test ./internal/cellindex/ -run '^$$' -fuzz FuzzReachMask -fuzztime 3s
	$(GO) test ./internal/cellindex/ -run '^$$' -fuzz FuzzSlabMasks -fuzztime 3s
	$(GO) test ./internal/wine2/ -run '^$$' -fuzz FuzzWinePipelines -fuzztime 3s
	$(GO) test ./internal/wine2/ -run '^$$' -fuzz FuzzTrigRows -fuzztime 3s

fmt:
	gofmt -w .

check:
	sh scripts/check.sh
