GO ?= go

.PHONY: all build vet lint test race check fuzz bench benchall repro examples clean

all: build vet test

# check is the pre-merge gate: vet + the generated-docs lint, build, the
# full test suite under the race detector — the parallel analytics engine
# (internal/par and every kernel on it) and the concurrent HTTP serving
# layer rely on -race to enforce their data-race guarantees on every change
# — and one short-mode pass over the benchmarks (-benchtime 1x) so
# benchmark code cannot bit-rot. The perfbench harness is a module of its
# own (perfbench/go.mod), so ./... never reaches it: check vets and tests it
# separately, so an internal API change that breaks the benchmark fails here.
check: lint
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# lint runs go vet plus the generated-documentation consistency tests: the
# CLI help, the `schema -methods` table and the README/EXPERIMENTS method
# sections must all match the sdc registry (testdata/methods.golden pins
# the rendered table), the -protect table — including the dp flags
# -epsilon/-delta/-budget/-principal — must match the sdcquery protection
# list (testdata/protections.golden), and the serve command's flag surface
# — including the sustained-load knobs -querylogcap/-cachecap/-ratelimit/
# -burst — must match testdata/serveflags.golden. Regenerate the goldens
# with `go test ./cmd/privacy3d -update`. It also fails when gofmt would
# reformat any tracked Go file (git ls-files keeps the ignored Go module
# cache under .bench_build/ out of the scan).
lint:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; test -z "$$unformatted" || { echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; }
	$(GO) test ./cmd/privacy3d -run 'TestMethodTableGolden|TestProtectionTableGolden|TestProtectionTableFlagsExist|TestServeFlagsGolden|TestHelpListsEveryMethod|TestProtectionHelpMatchesParser'

# fuzz runs each native fuzz target for 20 s on a local machine: the CSV
# reader, the store's four on-disk decoders — sealed segment, tail,
# manifest and dictionary — and the seal's dictionary build, checked
# against a comparison-sort reference on fuzzed columns of every segment
# length. CI and check run only their seed corpora, as part of go test.
fuzz:
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 20s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 20s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeTail$$' -fuzztime 20s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime 20s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeDict$$' -fuzztime 20s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzBuildSegData$$' -fuzztime 20s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench is the perf gate of the parallel engines: benchlinkage times the
# linkage/MDAV hot paths on a 50k-row synthetic workload, benchpir times
# the word-parallel PIR answer kernels (IT-PIR on a 64 MiB database, CPIR,
# end-to-end RangeStats) across worker counts, benchserve drives a
# Zipf query workload against the statistical server across client counts,
# recording sustained QPS and p50/p99 latency, and benchstore compares the
# statistical server's indexed path (cache disabled, so every query is a
# miss) against the compiled row scan — store.Snapshot.EvalScan + Sum called
# directly on the store — at 100k/1M rows, requiring ≥ 5× on selective
# predicates at 1M plus a pinned-snapshot stability check under concurrent
# ingest. All four hard-fail unless every parallel/cached/indexed/batched
# result is byte-identical to the sequential/uncached/scan/per-query
# reference (benchstore: indexed ≡ Query.Evaluate, Eval ≡ EvalScan
# bitmaps), and record their trajectories in BENCH_linkage.json /
# BENCH_pir.json / BENCH_serve.json / BENCH_store.json. On multi-core
# machines benchpir and benchstore additionally require real worker scaling
# (-minscaling 2: ≥ 2× at max workers vs workers=1); on a single CPU that
# gate degrades to a warning recorded in the JSON.
bench:
	$(GO) run ./cmd/benchlinkage -rows 50000 -workers 1,2,4,8 -out BENCH_linkage.json
	$(GO) run ./cmd/benchpir -blocks 65536 -blocksize 1024 -workers 1,2,4,8 -minscaling 2 -out BENCH_pir.json
	$(GO) run ./cmd/benchserve -rows 20000 -queries 512 -clients 1,2,8 -duration 1s -out BENCH_serve.json
	$(GO) run ./cmd/benchstore -rows 100000,1000000 -workers 1,2,8 -minscaling 2 -out BENCH_store.json

# benchall runs the full go-test benchmark battery (the paper experiments).
benchall:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and worked example of the paper.
repro:
	$(GO) run ./cmd/tablegen -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clinicaltrial
	$(GO) run ./examples/searchengine
	$(GO) run ./examples/collaborative
	$(GO) run ./examples/hippocratic
	$(GO) run ./examples/rulehiding

clean:
	$(GO) clean ./...
