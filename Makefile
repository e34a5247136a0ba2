GO ?= go

.PHONY: build test vet fmt verify examples bench bench-quick bench-json bench-shards bench-read bench-resize bench-recovery bench-scenario bench-writers bench-wire bench-consistency test-race test-resize test-chaos test-parallel-sim test-writers test-wire test-speckit test-ucperf fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# verify is the tier-1 gate: one command for CI and reviewers.
verify: build vet fmt test

# examples builds AND runs every examples/* binary, so API drift in an
# example fails the target (and CI) instead of rotting silently.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# bench runs the full -benchmem suite.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-quick prints the hot-path table in seconds, without updating
# the recorded trajectory.
bench-quick:
	$(GO) run ./cmd/ucbench -exp hotpath -quick

# bench-shards prints the E14 shard-scaling table (1/2/4/8 shards).
bench-shards:
	$(GO) run ./cmd/ucbench -exp shards

# bench-read prints the E15 read-mostly cache and E16 backlog-step
# tables.
bench-read:
	$(GO) run ./cmd/ucbench -exp readmostly,stepbacklog

# bench-resize prints the E17 live-resharding table (throughput dip
# and recovery across a 2→8 resize).
bench-resize:
	$(GO) run ./cmd/ucbench -exp resize

# bench-recovery prints the E18 table: time-to-convergence after a
# long fault, backlog redelivery vs anti-entropy digest sync.
bench-recovery:
	$(GO) run ./cmd/ucbench -exp recovery

# bench-scenario prints the E19 table: scenario generator at scale,
# parallel adversary steps/sec vs worker count (critical-path basis).
bench-scenario:
	$(GO) run ./cmd/ucbench -exp scenario

# bench-writers prints the E20 table: single-replica update throughput
# under 1/2/4/8 in-process writers, plus the contended-update Go
# benchmarks.
bench-writers:
	$(GO) run ./cmd/ucbench -exp writers
	$(GO) test -run xxx -bench ContendedUpdate -benchmem .

# bench-wire prints the E21 table: the insert workload on real ucserve
# daemon processes over loopback TCP (batching off and at the default
# threshold) against the in-process LiveNetwork baseline.
bench-wire:
	$(GO) run ./cmd/ucbench -exp wire

# test-race is CI's one race-detector pass: every test in the packages
# with concurrent code paths or schedule-reproducibility gates. The
# focused targets below (test-wire, test-parallel-sim, test-resize,
# test-writers, test-speckit, test-chaos) run subsets of it for local
# iteration; test-resize additionally covers internal/bench.
test-race:
	$(GO) test -race ./internal/core/ ./internal/transport/ ./internal/chaos/ ./internal/sim/ ./spectest/ ./internal/check/ .

# test-wire runs the loopback wire-transport suite under the race
# detector: the TCP transport and mailbox unit tests, the byte-level
# anti-entropy exchange, in-process daemon clusters for every object
# kind, the client protocol and garbage-frame rejection, and the real
# multi-process ucserve suite (three object kinds, CLI client, and
# kill -9 + restart repaired by the on-connect digest exchange).
test-wire:
	$(GO) test -race -run 'TestTCP|TestMailbox|Wire' ./internal/transport/ ./internal/core/ .

# fuzz runs a short coverage-guided pass over the byte-level decoder
# that faces the network: the wire-frame envelope codec. The seed
# corpus also runs under plain `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/transport/

# test-parallel-sim runs the parallel-adversary suite under the race
# detector: the transport's sharded stepper vs the sequential one, the
# every-object-kind property test at 2/4/8 workers, the public-API
# determinism regression (plain/sharded/mid-resize clusters), and the
# fault harness's scenario edge cases — all schedule-reproducibility
# gates.
test-parallel-sim:
	$(GO) test -race -run 'Parallel|Workers|Scenario|Scale' ./internal/transport/ ./internal/core/ ./internal/sim/ ./internal/chaos/ .

# test-resize runs the resharding test suite (core protocol, public
# API and the E17 table) under the race detector.
test-resize:
	$(GO) test -race -run 'Resize|Reshard' ./internal/core/ ./internal/bench/ .

# test-writers runs the concurrent-writer suite under the race
# detector: many goroutines writing through one replica handle while
# readers query, checked against exact-sum and sequential-fold oracles
# for every object kind, plus sharded resizes mid-stream, session
# guarantees and the loopback self-delivery stash.
test-writers:
	$(GO) test -race -run 'ConcurrentWriters|Loopback' ./internal/core/ .

# test-ucperf runs the benchmark harness's own tests under the race
# detector. ucperf is a separate Go module that assembles its traced
# cluster from internal packages, so `go test ./...` at the root never
# compiles it against changes there.
test-ucperf:
	cd ucperf && $(GO) test -race ./...

# test-speckit runs the open object-definition kit under the race
# detector: the public spectest conformance harness over every built-in
# descriptor, the Define/registry unit tests, the consistency-level
# (causal vs update-consistent) suites, and the CC decider.
test-speckit:
	$(GO) test -race ./spectest/ ./internal/check/
	$(GO) test -race -run 'Define|Registry|Consistency|Causal|Level|Spectest|OptionErr' .

# test-chaos runs the fault harness — seeded chaos schedules and the
# scenario presets, compiled to timelines and run through one executor
# against every object kind — plus the recovery and anti-entropy
# suites, all under the race detector.
test-chaos:
	$(GO) test -race ./internal/chaos/
	$(GO) test -race -run 'Sync|Recover|Crash|PartitionHeal|Heal|Fault|URB' ./internal/core/ ./internal/transport/ .

# bench-consistency prints the E22 table: the same workload folded at
# the causal and update-consistent levels, on commutative objects
# (counter, countermap — both converge, causal is cheaper) and a
# non-commutative one (log — causal diverges, arbitration is the price
# of convergence).
bench-consistency:
	$(GO) run ./cmd/ucbench -exp consistency

# bench-json refreshes the recorded perf trajectory (hot paths, shard
# scaling, read caches, adversary step, live resharding, recovery,
# scenario scaling). Set LABEL to this PR's entry; the matching entry
# in the trajectory's runs array is replaced, the rest are preserved
# and kept sorted by label.
LABEL ?= dev
bench-json:
	$(GO) run ./cmd/ucbench -exp hotpath,shards,readmostly,stepbacklog,resize,recovery,scenario,writers,wire,consistency -json BENCH_ucbench.json -label $(LABEL)
