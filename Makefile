# Development entry points; CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go

.PHONY: all build vet test race bench bench-json bench-gate bench-serve-json check fmt fuzz lint docs-check schemes-smoke serve-smoke fleet-smoke telemetry-smoke hetero-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# Machine-readable benchmark artifact for the simulator/tuner hot paths; CI
# runs this non-gatingly and uploads BENCH_sim.json. The microbenchmarks get
# BENCHTIME iterations to average out noise; the full grid search is seconds
# per op, so it runs once.
BENCHTIME ?= 100x
BENCH_MICRO = BenchmarkGraphOptimize$$|BenchmarkSimulateReuse|BenchmarkSimulate1F1B|BenchmarkSimulateChimera|BenchmarkTelemetry
bench-json:
	{ $(GO) test -run '^$$' -bench '$(BENCH_MICRO)' \
		-benchtime $(BENCHTIME) -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTunerSearch' -benchtime 1x -benchmem . ; } \
		| $(GO) run ./cmd/benchjson > BENCH_sim.json

# Regression gate over the committed artifact: re-runs the hot-path
# microbenchmarks and fails if any ns/op regressed by more than GATEPCT
# percent vs BENCH_sim.json. CI runs this non-gatingly (runner noise); run it
# locally before regenerating the baseline.
GATEPCT ?= 15
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkGraphOptimize$$|BenchmarkSimulateReuse' \
		-benchtime $(BENCHTIME) -benchmem . \
		| $(GO) run ./cmd/benchjson -gate $(GATEPCT) -baseline BENCH_sim.json \
			-only BenchmarkGraphOptimize,BenchmarkSimulateReuse

# Service-layer latency artifact: the mariod request path (cache hit, fresh
# run, traced run, /metrics scrape) against an instant run stub, so the
# numbers isolate serve/telemetry overhead from tuner work, plus the loadgen
# bursts (single member and routed 3-member fleet) whose p50/p99/req-s land
# under "extra".
bench-serve-json:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime $(BENCHTIME) -benchmem ./internal/serve \
		| $(GO) run ./cmd/benchjson > BENCH_serve.json

# Short fuzz smoke: each target gets FUZZTIME of coverage-guided input
# generation on top of its checked-in seeds.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSchemeBuild -fuzztime $(FUZZTIME) ./internal/scheme
	$(GO) test -run '^$$' -fuzz FuzzGraphPassInvariants -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzEngineReuseEquivalence -fuzztime $(FUZZTIME) ./internal/sim/difftest
	$(GO) test -run '^$$' -fuzz FuzzBnBArgmaxEquivalence -fuzztime $(FUZZTIME) ./internal/tuner

# Doc-comment lint for the packages whose contracts must live in the source:
# internal/sim (engine identity/caching rules), internal/pipeline (COW
# schedule rules), internal/scheme (the generator registry contract) and the
# planning service's public surface (internal/serve and its client).
# Dependency-free (cmd/exportlint, go/ast).
lint:
	$(GO) run ./cmd/exportlint ./internal/sim ./internal/pipeline ./internal/scheme ./internal/serve ./internal/serve/api ./internal/serve/client ./internal/serve/loadgen ./internal/telemetry ./internal/place

# End-to-end smoke of the mariod planning service: boots the daemon on a
# loopback port, plans a small workload through the Go client (fresh run,
# then a byte-identical cache hit), checks /healthz and /metrics, and walks
# the SIGTERM drain path. Exits non-zero on any failure.
serve-smoke:
	$(GO) run ./cmd/mariod -selfcheck

# Fleet smoke: boots a loopback three-member mesh (every member is
# coordinator + shard worker + router), proves the distributed search
# byte-identical to an in-process Optimize, proves peer-routed cache hits
# from every member, pushes a loadgen burst through (no errors, no 429/503),
# and drains. Exits non-zero on any failure.
fleet-smoke:
	$(GO) run ./cmd/mariod -fleet-selfcheck

# Telemetry smoke: the span-tree determinism tests under the race detector
# (canonical exports byte-identical for Workers ∈ {1,4,GOMAXPROCS}), the
# export golden files, and a traced cmd/mario search writing all three trace
# artifacts to a scratch dir.
telemetry-smoke:
	$(GO) test -race -run 'TestTraceWorkerIndependence|TestSelfTimeTelescopes' ./internal/tuner
	$(GO) test -run 'TestGoldenExports' ./internal/telemetry
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/mario -model LLaMA2-3B -devices 4 -gbs 16 \
		-search-trace "$$tmp/trace.json" -search-spans "$$tmp/spans.jsonl" \
		-search-trace-measured "$$tmp/measured.json" -search-summary >/dev/null && \
	test -s "$$tmp/trace.json" && test -s "$$tmp/spans.jsonl" && test -s "$$tmp/measured.json"

# Heterogeneity smoke: the placement subsystem's acceptance contract (co-opt
# strictly beats the uniform baseline in predicted AND measured throughput on
# the pinned scenario), worker-count independence and equivalence with the
# exhaustive oracle over the placement axis under the race detector, and one
# CLI run through -device-speeds/-placement.
hetero-smoke:
	$(GO) test -race -run 'TestHeteroCoOptBeatsUniform|TestHeteroAutoExploresBothModes' .
	$(GO) test -race -run 'TestHeteroDeterministicAcrossWorkers|TestHeteroBnBMatchesGridArgmax|TestAllOnesSpeedsAreLegacy' ./internal/tuner
	$(GO) run ./cmd/mario -model GPT3-13B -devices 8 -gbs 32 -mem 72G -scheme V \
		-device-speeds 3=0.8 -placement coopt -run 1 >/dev/null

# Markdown link + heading-anchor check over the repo docs plus the golden
# snippets in EXPERIMENTS.md and docs/SCHEMES.md (TestGoldenDocs re-runs the
# fast-mode experiments and the scheme-catalogue renderer and byte-compares
# their output against the documented blocks).
docs-check:
	$(GO) run ./cmd/docscheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md docs
	$(GO) test -run TestGoldenDocs ./internal/experiments

# Scheme-family smoke: every registered generator (incl. the split-backward
# ZB-H1 and DualPipe-D) builds and validates on the demo grid, the list
# scheduler is deterministic under the race detector, the zero-bubble
# comparison runs end to end, and the docs/SCHEMES.md diagrams match the
# renderer byte-for-byte.
schemes-smoke:
	$(GO) test -race -run 'TestAllSchemesValidate|TestSplitSchemesValidate|TestSchemeBuildDeterministic' ./internal/scheme
	$(GO) run ./cmd/experiments -fast -run zerobubble >/dev/null
	$(GO) test -run 'TestGoldenDocs|TestZeroBubbleFast' ./internal/experiments

check: vet build race fuzz lint docs-check schemes-smoke hetero-smoke serve-smoke fleet-smoke telemetry-smoke

fmt:
	gofmt -l -w .
