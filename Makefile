# Verification chain for the pasp repository. `make verify` is the gate a
# change must pass before merging; the individual targets are the tiers.
#
#   tier 1: build + test        (must always pass)
#   tier 2: race + lint + fmt   (race detector over the goroutine-heavy
#                                packages, go vet, the domain linter palint,
#                                and gofmt cleanliness) plus perfbench-check
#                                (vet and unit tests of the benchmark module)

GO ?= go

# Fuzz budget per target; CI's fuzz smoke runs with FUZZTIME=10s.
FUZZTIME ?= 30s

.PHONY: all build test shuffle race lint fmt-check perfbench-check fuzz bench examples trace-smoke serve-smoke verify loc

# trace-smoke output names; CI uploads both as artifacts.
TRACEJSON ?= run.trace.json
MANIFESTJSON ?= run.json

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled double pass: catches tests that only pass in declaration order or
# that leak state (memoized campaign stores, global gauges) between runs.
shuffle:
	$(GO) test -shuffle=on -count=2 ./...

# The mpi, cluster and simnet packages run ranks as goroutines; the race
# detector is the check that the virtual-time synchronization is real
# synchronization.
race:
	$(GO) test -race ./...

# go vet plus palint, the repo's domain-aware analyzer: the v1 per-file
# checks (unguarded float division, exact float comparison, dropped
# model-API errors, unsynchronized goroutine writes, unitcheck's
# dimensional analysis), the v3 interprocedural passes (detsource
# nondeterminism tainting and map-order output, ownfree payload ownership,
# atomicmix synchronization discipline, hotalloc hot-path allocation
# budgets) and the v4 communication passes (commshape rank-dependent
# collectives, phasebal phase discipline, deadlock symbolic rendezvous
# simulation).
# Suppressions live in the source as //palint:ignore comments with
# mandatory reasons; the full finding set — suppressed entries and their
# reasons included — lands in $(LINTJSON), which CI uploads per run.
LINTJSON ?= palint.json

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/palint -artifact $(LINTJSON) ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is its own module (pasp/perfbench, importing the repo through
# `replace pasp => ../`), so the ./... patterns above never compile it. Vet
# and unit-test it here: a change to an API it calls then fails verify
# rather than only the benchmark run.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test .

# The reproduction run: one pass of the root package's benchmarks prints
# every table, figure and ablation of the paper's evaluation, with
# allocation counts. PASP_BENCH_SUITE=quick (exported to the test process)
# swaps in the reduced suite for smoke runs. Performance is measured and
# gated by the repository benchmark, `bash perfbench/run.sh`, with the
# workloads and bounds BENCHMARK.json declares.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

# Run every example end to end. `go build ./...` only compiles examples/,
# so an example that starts to fail at run time would pass build and test.
examples:
	@for d in examples/*/; do \
		echo "go run ./$${d%/}"; \
		$(GO) run ./$${d%/} > /dev/null || exit 1; \
	done

# One observed FT run through the patrace exporter. patrace validates the
# trace-event JSON against the schema and checks the per-phase energy
# attribution sums to the run total before writing anything, so a zero exit
# status certifies both artifacts; CI uploads $(TRACEJSON) and
# $(MANIFESTJSON) for loading into Perfetto.
trace-smoke:
	$(GO) run ./cmd/patrace -kernel ft -n 4 -f 600 -suite quick \
		-chaos "seed=7,jitter=0.5" -metrics \
		-out $(TRACEJSON) -manifest $(MANIFESTJSON)

# Short fuzz pass over the core model contract (finite, non-negative,
# error-or-value), the chaos harness's injector/parser invariants, the trace
# merge (a stable sort by rank and start over chunked logs) and paserve's
# request handlers (never a 5xx on client input).
# CI-sized via FUZZTIME=10s; crank FUZZTIME locally for a deeper run.
fuzz:
	$(GO) test -fuzz=FuzzTermsTime -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzTermsSpeedup -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzMessageFault -fuzztime=$(FUZZTIME) ./internal/faults/
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults/
	$(GO) test -fuzz=FuzzMerge -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzPredictRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzSweepRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzRobustnessRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzTraceRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzParseGear -fuzztime=$(FUZZTIME) ./internal/serve/

# Serving smoke: start paserve on the quick suite with FT pre-warmed and
# full telemetry on (wide events to $(SERVEEVENTS), serve spans to
# $(SERVETRACE)), then drive it with paload in two strict phases — the
# cache-hit regime at 1000 QPS (the throughput floor the serving layer
# promises) and a 10 s mixed blend at 200 QPS. -strict fails the target on
# any transport error, non-2xx response (429s included: a warmed
# quick-suite server must never shed this load), or request-ID echo
# mismatch. The two phases use distinct seeds so their deterministic
# request IDs stay disjoint — pastat -strict treats a duplicate ID as a
# finding. Then two /robustness requests: one on the warmed FT campaign,
# whose SP and FP fits the traffic has already memoized, must get 200, and
# one whose magnitude pushes the jitter past its ceiling must get 400.
# After the graceful drain, pastat closes the loop offline: the
# wide-event log must satisfy a loose SLO, pass the telemetry-integrity
# checks, and the Perfetto trace must validate. The /metrics and
# /debug/requests scrapes, the paload JSON report, the event log, the trace
# and the pastat report are the artifacts.
SERVEADDR ?= 127.0.0.1:18080
LOADJSON ?= load.json
SERVEMETRICS ?= serve-metrics.txt
SERVEEVENTS ?= serve-events.jsonl
SERVETRACE ?= serve-trace.json
SERVEDEBUG ?= debug-requests.txt
PASTATREPORT ?= pastat-report.txt

serve-smoke:
	$(GO) build -o paserve.bin ./cmd/paserve
	$(GO) build -o paload.bin ./cmd/paload
	$(GO) build -o pastat.bin ./cmd/pastat
	@rm -f $(SERVEEVENTS); \
	./paserve.bin -addr $(SERVEADDR) -suite quick -warm ft \
		-events $(SERVEEVENTS) -trace $(SERVETRACE) -ring 512 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	up=0; for i in $$(seq 1 100); do \
		curl -fsS http://$(SERVEADDR)/healthz >/dev/null 2>&1 && { up=1; break; }; \
		sleep 0.2; done; \
	[ $$up -eq 1 ] || { echo "paserve did not come up on $(SERVEADDR)"; exit 1; }; \
	./paload.bin -url http://$(SERVEADDR) -qps 1000 -duration 5s -seed 1 \
		-mix predict -kernel ft -n 4 -f 1400mhz -strict -json $(LOADJSON) || exit 1; \
	./paload.bin -url http://$(SERVEADDR) -qps 200 -duration 10s -seed 2 \
		-mix quick -kernel ft -n 4 -f 1400mhz -strict || exit 1; \
	code=$$(curl -sS -o /dev/null -w '%{http_code}' -d '{"kernel":"ft","ns":[2,4],"magnitudes":[0,1]}' http://$(SERVEADDR)/robustness); \
	[ "$$code" = 200 ] || { echo "/robustness on warmed FT answered $$code, want 200"; exit 1; }; \
	code=$$(curl -sS -o /dev/null -w '%{http_code}' -d '{"kernel":"is","ns":[4],"magnitudes":[0,1e308],"chaos":"seed=1,jitter=1.7"}' http://$(SERVEADDR)/robustness); \
	[ "$$code" = 400 ] || { echo "/robustness past the jitter ceiling answered $$code, want 400"; exit 1; }; \
	curl -fsS http://$(SERVEADDR)/metrics > $(SERVEMETRICS) || exit 1; \
	curl -fsS http://$(SERVEADDR)/debug/requests > $(SERVEDEBUG) || exit 1; \
	trap - EXIT; \
	kill -TERM $$pid && wait $$pid || exit 1; \
	./pastat.bin -events $(SERVEEVENTS) -strict \
		-slo p99=2s,err_rate=0.001 -validate-trace $(SERVETRACE) \
		> $(PASTATREPORT); status=$$?; cat $(PASTATREPORT); \
	[ $$status -eq 0 ] || exit 1; \
	echo "serve-smoke OK"

verify: build test lint fmt-check race perfbench-check

# Non-test Go lines: the size figure ROADMAP.md and CHANGES.md track.
# Benchmark build output, the perfbench module and test fixtures are not
# counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './perfbench/*' ! -path '*/testdata/*' | xargs cat | wc -l
