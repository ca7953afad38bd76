# Development entry points for the sflow reproduction.

GO ?= go

# Pinned linter + vulnerability scanner + fuzz budget, overridable from the
# environment/CI.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
FUZZTIME ?= 30s

# Bench gates tee the fresh benchmark output here so CI can upload it as an
# artifact when a gate fails (compare against the committed baseline offline).
FRESHDIR ?= .bench-fresh

.PHONY: all build test race race-hot race-session race-daemon race-admit race-reopt race-lazy check smoke cover cover-check bench bench-hotpath bench-json bench-check bench-kernel bench-reopt reopt-check bench-lazy lazy-check vet fmt fmt-check lint staticcheck vulncheck fuzz figures results-check examples examples-check clean

all: build test

# Tier-1 gate: what CI runs on every PR. The equivalence-oracle property
# tests of the incremental session run race-instrumented on every gate, as
# does the serving daemon's concurrent-clients smoke.
check: build vet test race-session race-daemon race-admit race-reopt race-lazy smoke

# Race-instrumented end-to-end run of the metrics-enabled benchmark driver:
# a small Fig 10(a) sweep at several workers with a snapshot written, the
# cheapest whole-stack exercise of the observability layer.
smoke:
	$(GO) run -race ./cmd/sflowbench -fig 10a -sizes 10,20 -trials 2 -workers 4 -metrics /dev/null

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-check the packages that run worker pools and concurrent transports.
race-hot:
	$(GO) test -race ./internal/metrics/... ./internal/transport/... ./internal/core/... ./internal/experiments/... ./internal/qos/... ./internal/session/...

# Race-instrumented equivalence-oracle tests: the session's incremental
# flushes fan per-source recomputation out over a worker pool, so the oracle
# traces, the churn-eager pair-stream and lazy epoch-stream count pins and
# the lazy arc-delta property run under the race detector on every check (-short keeps the gate
# fast; the full 5x1000-event traces run in `make race-hot` and CI).
race-session:
	$(GO) test -race -short ./internal/session/ -run 'TestEquivalenceOracleTrace|TestBatchedEventsSingleFlush|TestChurnPairStreamCounts|TestLazyEpochStreamCounts|TestArcRulesKeepOnlyUnchangedRows'

# Race-instrumented serving smoke: concurrent TCP clients solving against
# sflowd's epoch machinery while another client streams mutations, plus the
# root-level byte-equivalence battery between served and stateless solves,
# and the read-only contract every request's requirement is shared under
# (structural queries and Validate from many goroutines on one requirement).
race-daemon:
	$(GO) test -race ./internal/require/ -run 'TestSharedRequirementIsReadOnly|TestMutatingFrozenRequirementDropsViews'
	$(GO) test -race ./internal/daemon/ -run 'TestConcurrentClientsUnderChurn|TestSolveOverTCPMatchesDirectComputation'
	$(GO) test -race . -run 'TestDaemonServingEquivalenceBattery'

# Race-instrumented multi-tenant admission oracle: many goroutines admitting,
# releasing and preempting through the capacity allocator — locally and over
# sflowd RPCs — must serialize to a sequential replay of the recorded log, and
# the allocator's incrementally maintained residual table must equal a
# from-scratch all-pairs computation after every operation and recompute
# exactly the pinned row count over the admit-mix stream.
race-admit:
	$(GO) test -race ./internal/provision/ -run 'TestAllocator|TestConcurrentAdmissionMatchesSequentialReplay|TestReplay|TestSeededAdmitRelease|TestResidualTable|TestAdmitMixTableCounts'
	$(GO) test -race ./internal/daemon/ -run 'TestAdmitReleaseTenantsRPC|TestConcurrentAdmitRPCMatchesSequentialReplay'
	$(GO) test -race . -run 'TestAllocatorPublicAPI|TestReplayAdmissionsWithNilAlgFor'

# Race-instrumented lazy-routing battery: the single-flight row memoization
# and its batch fill are the one place concurrent readers share mutable state
# with computing goroutines, so the qos lazy and snapshot tests (a lazy
# snapshot routes on the freeze it shares with the live table, which adopts
# its rows), the lazy churn oracle, the root byte-equivalence battery and a
# lazy daemon's concurrent clients under a mutation stream all run under the
# race detector on every check.
race-lazy:
	$(GO) test -race ./internal/qos/ -run 'TestLazy|TestSnapshot|FuzzLazyInvalidation'
	$(GO) test -race -short ./internal/session/ -run 'TestLazyEquivalenceOracleTrace|TestLazySnapshotIsConsistentAndImmutable'
	$(GO) test -race -short . -run 'TestLazySolveByteIdentical|TestLazySessionSolveByteIdentical|TestContractedHierarchicalSolves|TestDaemonLazyConcurrentEpochs'

# Race-instrumented re-optimization battery: the link-load ledger must
# deep-equal a from-scratch recount after any seeded interleaving, gated live
# migrations must never regress max utilization, and the daemon's background
# reoptimizer loop must relieve a hot link end-to-end over RPC.
race-reopt:
	$(GO) test -race ./internal/reopt/
	$(GO) test -race ./internal/provision/ -run 'TestMigrate|TestExpiryReleaseRaceKeepsLedgerExact|TestMigrationCarriesLease'
	$(GO) test -race ./internal/daemon/ -run 'TestLinksRPCTracksAdmittedLoad|TestReoptLoopRelievesHotLink'

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Coverage floor gate: total statement coverage must not drop below the
# checked-in floor (coverage-floor.txt). Raise the floor when coverage
# genuinely improves; never lower it to make a PR pass.
cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | grep -Eo '[0-9]+\.[0-9]+'); \
	floor=$$(cat coverage-floor.txt); \
	ok=$$(awk -v t="$$total" -v f="$$floor" 'BEGIN { print (t >= f) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then echo "coverage $$total% below floor $$floor%"; exit 1; fi; \
	echo "coverage $$total% >= floor $$floor%"

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmark suite: the qos kernels (map oracle vs dense CSR engine)
# plus the session-level incremental-vs-rebuild benchmark. HOTBENCH is the
# selection the human-readable results/bench-hotpath.txt records; GATEBENCH
# is the stricter subset the CI regression gate enforces (kernels only —
# worker-scaling benchmarks are too scheduler-noisy to gate).
HOTBENCH  ?= BenchmarkWidestKernel|BenchmarkLatencyKernel|BenchmarkShortestWidest|BenchmarkShortestLatency|BenchmarkAllPairs|BenchmarkIncrementalFlush|BenchmarkSessionIncrementalVsRebuild
GATEBENCH ?= BenchmarkWidestKernel|BenchmarkLatencyKernel|BenchmarkShortestWidest|BenchmarkAllPairs
BENCHCOUNT ?= 3

bench-hotpath:
	$(GO) test -run '^$$' -bench '$(HOTBENCH)' -benchmem ./internal/qos/ ./internal/session/ | tee results/bench-hotpath.txt

# Machine-readable perf record (min ns/op over $(BENCHCOUNT) runs per
# benchmark). Regenerate and commit it whenever the hot path changes on
# purpose: it is the baseline `bench-check` gates against.
bench-json:
	$(GO) test -run '^$$' -bench '$(HOTBENCH)' -benchmem -count $(BENCHCOUNT) ./internal/qos/ ./internal/session/ \
		| $(GO) run ./cmd/benchjson -out results/BENCH_hotpath.json
	@echo "wrote results/BENCH_hotpath.json"

# CI benchmark-regression gate: rerun the gated kernels and fail if any is
# more than 25% slower than the committed baseline. CI machines differ from
# the baseline machine, so ratios are normalized by the map-oracle all-pairs
# benchmark — a calibration leg the CSR hot path does not touch.
bench-check:
	@mkdir -p $(FRESHDIR)
	$(GO) test -run '^$$' -bench '$(GATEBENCH)' -benchtime 0.2s -count $(BENCHCOUNT) ./internal/qos/ \
		| tee $(FRESHDIR)/bench-hotpath.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_hotpath.json \
			-match '$(GATEBENCH)' -normalize 'BenchmarkAllPairs/engine=map/n=120' -threshold 1.25

# Tiered-kernel gate: the per-row shortest-widest sweep across bandwidth
# palette sizes (tiers 1, 3, 6, 12 on a 2000-node GenerateLarge-shaped
# graph, and tiers 6 at 10000 nodes, the lazy-large overlay's size), gated
# against the committed BENCH_hotpath.json baseline. The tier sweep is what
# the phase-2 early exit and the monotone bucket queues with their
# rank-bitmap drain exist for, so it gets its own CI leg; the same
# calibration normalization as bench-check cancels runner speed out. The
# sweep also matches HOTBENCH (the regex BenchmarkShortestWidest is a prefix
# of its name), so bench-json records its baseline alongside the other
# kernels.
KERNELBENCH ?= BenchmarkShortestWidestTiers|BenchmarkAllPairs
bench-kernel:
	@mkdir -p $(FRESHDIR)
	$(GO) test -run '^$$' -bench '$(KERNELBENCH)' -benchtime 0.2s -count $(BENCHCOUNT) ./internal/qos/ \
		| tee $(FRESHDIR)/bench-kernel.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_hotpath.json \
			-match 'BenchmarkShortestWidestTiers' -normalize 'BenchmarkAllPairs/engine=map/n=120' -threshold 1.25

# Re-optimization benchmark record and gate: one gated live migration through
# the planner's mirror-session solve (BenchmarkPlannerMigration), normalized
# by a stateless abstract+reduce solve over the same topology
# (BenchmarkReoptCalibration) so runner speed cancels out. bench-reopt
# regenerates the committed baseline; reopt-check fails CI on a >25%
# regression.
REOPTBENCH ?= BenchmarkPlannerMigration|BenchmarkReoptCalibration
bench-reopt:
	$(GO) test -run '^$$' -bench '$(REOPTBENCH)' -benchmem -count $(BENCHCOUNT) ./internal/reopt/ \
		| $(GO) run ./cmd/benchjson -out results/BENCH_reopt.json
	@echo "wrote results/BENCH_reopt.json"

reopt-check:
	@mkdir -p $(FRESHDIR)
	$(GO) test -run '^$$' -bench '$(REOPTBENCH)' -benchtime 0.2s -count $(BENCHCOUNT) ./internal/reopt/ \
		| tee $(FRESHDIR)/bench-reopt.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_reopt.json \
			-match 'BenchmarkPlannerMigration' -normalize 'BenchmarkReoptCalibration' -threshold 1.25

# Large-overlay latency record and gate: one demand-driven federation against
# directly generated 10k- and 50k-node overlays (BenchmarkLazyFederate),
# normalized by the identical solve at 2k nodes (BenchmarkLazyCalibration) so
# runner speed cancels out. bench-lazy regenerates the committed baseline;
# lazy-check fails CI on a >25% regression. -benchtime 1x keeps the gate
# bounded: each 50k op is seconds, and min-over-$(BENCHCOUNT) runs absorbs
# scheduler noise. The record also carries BenchmarkLazyRowHit, a read of a
# resident 10k-node row; that is nanoseconds, so it runs at the default
# benchtime and is recorded, not gated.
LAZYBENCH ?= BenchmarkLazyFederate|BenchmarkLazyCalibration
bench-lazy:
	{ $(GO) test -run '^$$' -bench '$(LAZYBENCH)' -benchmem -benchtime 1x -count $(BENCHCOUNT) . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkLazyRowHit' -benchmem -count $(BENCHCOUNT) . ; } \
		| $(GO) run ./cmd/benchjson -out results/BENCH_lazy.json
	@echo "wrote results/BENCH_lazy.json"

lazy-check:
	@mkdir -p $(FRESHDIR)
	$(GO) test -run '^$$' -bench '$(LAZYBENCH)' -benchtime 1x -count $(BENCHCOUNT) . \
		| tee $(FRESHDIR)/bench-lazy.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_lazy.json \
			-match 'BenchmarkLazyFederate' -normalize 'BenchmarkLazyCalibration' -threshold 1.25

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Fail (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis gate: formatting, go vet and a pinned staticcheck.
# staticcheck downloads on first use, so it needs network (CI always has it).
lint: fmt-check vet staticcheck

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Known-vulnerability scan of the module and its (stdlib) call graph, pinned
# like staticcheck. Downloads on first use, so it needs network (CI has it).
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Short-budget fuzzing of the codec trust boundaries (TCP frame reader,
# protocol wire codec and the reliability wrapper, CSR freeze round-trip),
# the dense kernel on a freeze against qos's map oracle on the overlay,
# the incremental-invalidation oracles (link-state views, lazy routing rows
# with a bounded LRU table running the same trace, and the eager table's
# arc-delta rules with its patched freeze), the
# bucket-vs-heap kernel equivalence over fuzz-built graphs declared in
# permuted id order (the rank-bitmap drains), the layered
# placement DP against the map oracle over fuzz-built tied overlays, and the
# slice-backed digraph against its map-backed oracle over fuzzed edits.
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/linkstate -run '^$$' -fuzz FuzzLinkstateIncremental -fuzztime $(FUZZTIME)
	$(GO) test ./internal/csr -run '^$$' -fuzz FuzzFreezeRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qos -run '^$$' -fuzz FuzzFreezeRouting -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qos -run '^$$' -fuzz FuzzLazyInvalidation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qos -run '^$$' -fuzz FuzzIncrementalArcChanged -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qos -run '^$$' -fuzz FuzzBucketQueue -fuzztime $(FUZZTIME)
	$(GO) test ./internal/baseline -run '^$$' -fuzz FuzzLayeredDP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/daemon -run '^$$' -fuzz FuzzDaemonCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzDigraphOps -fuzztime $(FUZZTIME)

# The committed figures and the sflowbench flags of each: the one list both
# `figures` and `results-check` read.
FIGURES ?= results/figures.txt

# run_figures regenerates every figure of $(FIGURES) into $(1) (CSV + SVG).
define run_figures
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/sflowbench ./cmd/sflowbench || exit 1; \
	grep -v '^#' $(FIGURES) | while read -r fig flags; do \
		[ -z "$$fig" ] || $$tmp/sflowbench -fig $$fig $$flags -csv $(1) -svg $(1) >/dev/null || exit 1; \
	done || exit 1
endef

# Regenerate every reproduced figure (CSV + SVG under results/).
figures:
	@$(call run_figures,results)

# The committed figures are a whole-system oracle: every solver, kernel and
# generator change must leave them byte-identical. Regenerate into a temporary
# directory and compare every committed CSV and SVG except fig10b's, whose
# timing columns are wall-clock.
results-check:
	@$(call run_figures,$$tmp/out); status=0; \
	for f in results/*.csv results/*.svg; do \
		case $$f in results/fig10b.*) continue;; esac; \
		cmp $$f $$tmp/out/$$(basename $$f) || status=1; \
	done; \
	[ $$status -eq 0 ] && echo "results-check: every committed figure regenerates byte-identical"; exit $$status

EXAMPLES ?= quickstart travel media npcomplete provision failover

examples:
	@for e in $(EXAMPLES); do $(GO) run ./examples/$$e || exit 1; done

# The examples are a checked oracle of the public API: their combined stdout
# must match examples/expected.txt byte for byte.
examples-check:
	@tmp=$$(mktemp); trap 'rm -f $$tmp' EXIT; \
	for e in $(EXAMPLES); do $(GO) run ./examples/$$e || exit 1; done > $$tmp; \
	cmp $$tmp examples/expected.txt && echo "examples-check: every example prints examples/expected.txt"

# results/ holds committed reproduced figures — never delete it here.
clean:
	rm -f cover.out
	rm -rf $(FRESHDIR)
