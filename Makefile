# Stat4 build and correctness gate. CI (.github/workflows/ci.yml) runs the
# same targets; `make check` is the full local equivalent.

GO ?= go

.PHONY: all build test race vet lint bench detect detect-smoke fuzz-smoke metrics-smoke stat4d-smoke perfbench-selftest loc check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race uses -short: instrumentation slows the minutes-long virtual-time
# experiment sweeps past the test timeout, and they are single-threaded
# anyway — the concurrency surface (controller, registers, tables, netem)
# is fully exercised by the short suite.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# lint runs the switch-feasibility gate both ways: the standalone whole-module
# driver (authoritative: the datapath closure crosses package boundaries) and
# through go vet's -vettool protocol (what editor integrations use). Both
# modes also run the program-level gates — stagebudget (every registered
# emitted program must fit the pisa-3pass target model) and mergelaw (declared
# merge kinds, additive-only MergeSum writes) — standalone always, vettool on
# the stat4p4 package's unit.
lint:
	$(GO) run ./cmd/stat4-lint ./...
	$(GO) build -o $(CURDIR)/bin/stat4-lint ./cmd/stat4-lint
	$(GO) vet -vettool=$(CURDIR)/bin/stat4-lint ./...

# bench regenerates BENCH_$(BENCHN).json: the E1–E6 experiment benchmarks, the
# per-packet switch benches and the timer-wheel simulation-engine benches
# (scheduling, dispatch, batched stream injection), with allocation counts
# (-benchmem). Set BASELINE to a saved `go test -bench`
# output to record before/after deltas in the JSON; raise BENCHCOUNT for
# lower-variance numbers.
BENCHN ?= 1
BENCHCOUNT ?= 1
BENCHFILTER ?= Benchmark(Table2|Table3|EchoValidation|CaseStudy|ResourceAnalysis|ArchComparison|Switch|Sharded|Sim|InjectStream|RingPush|IngestHandoff|Stat4dE2E|Log2Fixed|FlowTable)
bench:
	$(GO) test -run=^$$ -bench '$(BENCHFILTER)' -benchmem -count=$(BENCHCOUNT) . | tee bench_latest.txt
	$(GO) run ./cmd/stat4-bench $(if $(BASELINE),-baseline $(BASELINE)) -o BENCH_$(BENCHN).json bench_latest.txt

# detect regenerates DETECT_$(DETECTN).json: the detection-quality matrix —
# every scenario of the traffic registry replayed against every detector
# config (healthy and pathological) at 1 and 4 shards, scored for
# time-to-detect, precision/recall/F1, drill-down accuracy and benign-twin
# false alarms. Deterministic: fixed seeds and the virtual clock make the
# scores byte-stable. Set DETECT_BASELINE to a previous artifact to record
# quality deltas and gate on regressions.
DETECTN ?= 1
detect:
	$(GO) run ./cmd/stat4-detect $(if $(DETECT_BASELINE),-baseline $(DETECT_BASELINE) -gate) -o DETECT_$(DETECTN).json -q

# detect-smoke is the CI-speed slice of the same matrix: quarter-length
# traces, the dominance audit and the benign false-alarm bounds enforced by
# the test, plus the unit surface of the scorer.
detect-smoke:
	$(GO) test -run 'TestMatrixContract|TestRunDeterministic|TestSchedulerAgreement' -v ./internal/detect/

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# regressions in the parser round-trip, sqrt invariants, the compiled plan
# against its test-only tree-walker oracle, the timer wheel against its
# test-only heap oracle, and the three decoders of input the daemon does not
# control (/bind bodies, the ServeConn record stream, pcap captures) without
# stalling CI.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzSqrtApprox -fuzztime=$(FUZZTIME) ./internal/intstat/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run=^$$ -fuzz=^FuzzDifferential$$ -fuzztime=$(FUZZTIME) ./internal/p4/
	$(GO) test -run=^$$ -fuzz=FuzzShardEquivalence -fuzztime=$(FUZZTIME) ./internal/p4/
	$(GO) test -run=^$$ -fuzz=FuzzSchedulerEquivalence -fuzztime=$(FUZZTIME) ./internal/netem/
	$(GO) test -run=^$$ -fuzz=FuzzRingFIFO -fuzztime=$(FUZZTIME) ./internal/ring/
	$(GO) test -run=^$$ -fuzz=FuzzFlowDeterminism -fuzztime=$(FUZZTIME) ./internal/flowtable/
	$(GO) test -run=^$$ -fuzz=FuzzBindRequest -fuzztime=$(FUZZTIME) ./cmd/stat4d/
	$(GO) test -run=^$$ -fuzz=FuzzServeConn -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run=^$$ -fuzz=FuzzPcapReader -fuzztime=$(FUZZTIME) ./internal/packet/

# metrics-smoke replays a small synthetic capture with telemetry attached and
# asserts the Prometheus-style exposition parses (integer-only, quantiles from
# the Stat4 percentile markers) — the -metrics flag's end-to-end gate.
metrics-smoke:
	$(GO) test -run TestMetricsSmoke -v ./cmd/stat4-replay

# stat4d-smoke boots the daemon in-process with pcap + TCP + unix-socket
# sources, streams frames over every listener, exercises the whole HTTP
# control plane (metrics scrape, snapshot, drill-down, runtime rebinding) and
# drains — the live-ingest end-to-end gate.
stat4d-smoke:
	$(GO) test -run 'TestDaemonSmoke|TestPushClientRoundTrip' -v ./cmd/stat4d

# perfbench-selftest vets and tests the benchmark harness. perfbench/ is a
# separate module that `go build ./...` never compiles, so an internal/ API
# change that breaks the harness would otherwise pass every other gate.
perfbench-selftest:
	cd perfbench && $(GO) vet . && $(GO) test .

# loc prints the production Go line count each change states: every non-test
# Go file outside the perfbench/ harness module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

check: build vet lint race detect-smoke fuzz-smoke metrics-smoke stat4d-smoke perfbench-selftest

clean:
	rm -rf bin
