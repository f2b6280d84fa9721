# pmgard build and verification targets.

GO ?= go

.PHONY: all build test vet race cover fuzz benchmark experiments experiments-quick clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed on the files above" && exit 1)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage gate over the codec stack (internal/codec, internal/bitplane,
# internal/core) against the baseline in ci/coverage_baseline.txt.
cover:
	./ci/covergate.sh

# Short fuzz pass over every fuzz target (regression corpora always run
# under plain `make test`).
fuzz:
	$(GO) test -fuzz '^FuzzOpen$$' -fuzztime 30s ./internal/storage/
	$(GO) test -fuzz FuzzOpenTiered -fuzztime 30s ./internal/storage/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 30s ./internal/lossless/
	$(GO) test -fuzz FuzzDecompressGarbage -fuzztime 30s ./internal/lossless/
	$(GO) test -fuzz FuzzInflateMatchesStdlib -fuzztime 30s ./internal/lossless/
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/fieldio/
	$(GO) test -fuzz FuzzCodecRoundtrip -fuzztime 30s ./internal/codec/codectest/
	$(GO) test -fuzz FuzzNodeRunResponse -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzConcurrentRetrieve -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzTransposeWords -fuzztime 30s ./internal/bitplane/
	$(GO) test -fuzz FuzzDecodeWords -fuzztime 30s ./internal/bitplane/
	$(GO) test -fuzz FuzzEncodeKernels -fuzztime 30s ./internal/bitplane/
	$(GO) test -fuzz FuzzLiftRows -fuzztime 30s ./internal/decompose/
	$(GO) test -fuzz FuzzLiftLines -fuzztime 30s ./internal/decompose/
	$(GO) test -fuzz FuzzExactPlan -fuzztime 30s ./internal/retrieval/

# The repository benchmark (BENCHMARK.json): the four end-to-end workloads
# over the real serve/mgard binaries at 129³; see benchmark/README.md.
benchmark:
	$(GO) run ./benchmark

# Regenerate every paper table/figure at default scale (~25 min on 1 core).
experiments:
	$(GO) run ./cmd/bench -exp all

# Every experiment id at -quick scale (seconds) from the real binary; fails
# on a non-zero exit. Package tests run the ids too, but not cmd/bench.
experiments-quick:
	$(GO) run ./cmd/bench -exp all -quick

clean:
	$(GO) clean ./...
