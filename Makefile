GO ?= go

.PHONY: all build vet lint test race check fuzz bench benchall repro examples clean

all: build vet test

# check is the pre-merge gate: vet + the generated-docs lint, build, the
# full test suite under the race detector — the parallel analytics engine
# (internal/par and every kernel on it) and the concurrent HTTP serving
# layer rely on -race to enforce their data-race guarantees on every change
# — then the sdcquery concurrency tests five more times under -race, since
# every privacy-state commit shares one lock and an interleaving bug shows
# only on some runs, and one short-mode pass over the benchmarks
# (-benchtime 1x) so benchmark code cannot bit-rot. The perfbench harness
# is a module of its own (perfbench/go.mod), so ./... never reaches it:
# check vets and tests it separately, so an internal API change that
# breaks the benchmark fails here.
check: lint
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race ./internal/sdcquery -run 'Hammer|Concurrent|AskBatch' -count=5
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

# bench times the parallel engines across worker counts — linkage/MDAV on
# 50k synthetic rows, the word-parallel PIR kernels on a 64 MiB database,
# and the statistical server's indexed path against the compiled row scan
# at 100k and 1M rows — checks every timed output against its reference
# (workers=1, the bytewise PIR kernel, the scan), and writes each gate's
# measured value and verdict to BENCH_gates.json before exiting non-zero
# on a failed gate. The timing gates: indexed ≥ 5× scan QPS on selective
# predicates at 1M rows, and ≥ 2× at 8 workers vs 1 for the IT-PIR kernel
# and the indexed path, enforced only on more than one CPU.
bench:
	$(GO) run ./cmd/bench -out BENCH_gates.json

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
