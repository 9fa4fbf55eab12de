# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-shuffle test-race test-replan test-recovery test-serve vet lint lint-fast loc bench bench-smoke experiments examples repro record fuzz-short clean

# Everything CI's test steps run, but fuzzing and the benchmarks.
all: build loc vet lint test test-shuffle test-race test-replan test-recovery test-serve bench-smoke

build:
	go build ./...

# Non-test and test Go line counts outside bench/ and testdata/. Fails
# once the non-test count reaches 23,000, the ROADMAP's standing limit.
loc:
	@counts=$$(bash tools/loc.sh) && echo "$$counts" && \
		echo "$$counts" | awk '$$1 == "non-test" && $$2 >= 23000 { print "loc: non-test lines must stay below 23000"; exit 1 }'

vet:
	go vet ./...

# Static analysis, full suite: `go vet` plus rbvet's determinism and
# purity invariants (see DESIGN.md "Static analysis"), including the
# escape-analysis-backed noalloc gate. Diagnostics are also written to
# rbvet.json for the CI artifact.
lint: vet
	go run ./cmd/rbvet -json rbvet.json ./...

# lint-fast skips the compiler escape-analysis pass (and with it the
# noalloc analyzer): type-checking only, for quick iteration.
lint-fast:
	go run ./cmd/rbvet -fast ./...

test:
	go test ./...

# Tier-1 in random test order: pooled and recycled state must not leak
# between tests.
test-shuffle:
	go test -shuffle=on -count=1 ./...

# Race-detector pass. No plan search fans out any more: a Simulator and
# its Planner belong to one goroutine. What runs concurrently is the
# chaos harness's scenario fan-out (harness.RunBatch, one Simulator per
# scenario), stream derivation, and the per-run state that is pooled and
# recycled across the serve driver goroutines; these packages hold it.
test-race:
	go test -race -count=1 ./internal/sim ./internal/planner ./internal/stats ./internal/par ./internal/harness \
		./internal/vclock ./internal/trace ./internal/executor ./internal/cloud ./internal/cluster ./internal/placement

# Replanning suite: the controller's unit tests, the differential
# replan-vs-stale/zero-drift tests, and the metamorphic planner tests,
# all under the race detector.
test-replan:
	go test -race -count=1 ./internal/replan ./internal/profiler
	go test -race -count=1 ./internal/harness -run 'TestReplan|TestZeroDrift'
	go test -race -count=1 ./internal/planner -run 'TestPriceScaling|TestDeadlineTightening|TestPlanInvariant'

# Durability suite: the journal codec/backends, the exhaustive
# crash-point sweep (kill + bit-identical recovery at journal writes,
# both backends), the inputs-only, sync and tamper checks, the depth of
# the snapshot state fold, and the journaling-invisibility property
# test, all under the race detector.
test-recovery:
	go test -race -count=1 ./internal/journal
	go test -race -count=1 ./internal/harness -run 'TestCrashPointSweep|TestReplanScenarioAdopts|TestSnapshotIntervalInvisible|TestCrashRecover|TestResumeRefuses|TestJournalHoldsInputsOnly|TestCrashSyncsNothingAfter|TestTamperedJournalDiverges|TestEventFold|TestSnapshotState'

# Multi-tenant control-plane suite: the admission ledger's unit and
# property tests, the HTTP backpressure suite (429 + Retry-After, FIFO
# drain, 100+ concurrent experiments with offline replay verification),
# consistent /v1/stats snapshots and no admission after Close under
# concurrent submits, the slack-vs-FIFO arbiter differential, and crash recovery across
# process generations — all under the race detector (the HTTP layer is
# the one deliberately concurrent surface above the deterministic core).
# RB_HEAVY_TESTS=1 additionally runs the p99 status-latency SLO test.
test-serve:
	go test -race -count=1 ./internal/serve ./cmd/rbserve
	go test -race -count=1 ./internal/harness -run 'TestCheckFleet|TestArbitrated|TestGated|TestRunningStepwise'
	go test -race -count=1 ./internal/executor -run 'TestStageGate'

# Bounded chaos pass for CI: a fixed scenario batch through every
# invariant oracle with replay and crash/recovery equivalence, then 30s
# of native fuzzing per target. A reported failure reproduces with
# `go run ./cmd/rbfuzz -seed S -index I`. The two batches must print
# their pinned digests: a change that moves a decision fails here, and
# the change that re-pins them on purpose updates both lines.
fuzz-short:
	go run ./cmd/rbfuzz -seed 1 -n 128 | tee /dev/stderr | \
		grep -qxF 'rbfuzz: 128 scenario(s), 0 failure(s), batch digest 8f63be16091233d6'
	go run ./cmd/rbfuzz -seed 1 -n 32 -crash | tee /dev/stderr | \
		grep -qxF 'rbfuzz: 32 scenario(s), 0 failure(s), batch digest 89d7160b38dc5422'
	go test ./internal/harness -run='^$$' -fuzz=FuzzEndToEnd -fuzztime=30s
	go test ./internal/vclock -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=30s
	go test ./internal/harness -run='^$$' -fuzz=FuzzRecover -fuzztime=30s
	go test ./internal/harness -run='^$$' -fuzz=FuzzRecycledRun -fuzztime=30s
	go test ./internal/journal -run='^$$' -fuzz=FuzzJournalRoundTrip -fuzztime=30s
	go test ./internal/planner -run='^$$' -fuzz=FuzzPlanElastic -fuzztime=30s
	go test ./internal/sim -run='^$$' -fuzz=FuzzCohortBilling -fuzztime=10s
	go test ./internal/sim -run='^$$' -fuzz=FuzzIndexMatchesMap -fuzztime=10s
	go test ./internal/sim -run='^$$' -fuzz=FuzzCompileMatchesPointerOracle -fuzztime=10s
	go test ./internal/stats -run='^$$' -fuzz=FuzzMaxIndepMatchesClark -fuzztime=10s
	go test ./internal/trace -run='^$$' -fuzz=FuzzRecorderMatchesReference -fuzztime=10s
	go test ./internal/serve -run='^$$' -fuzz=FuzzSubmission -fuzztime=30s
	go test ./internal/placement -run='^$$' -fuzz=FuzzUpdateMatchesReference -fuzztime=30s

# Deterministic reproducibility harness (see tools/repro/run.sh for the
# RB_RUN_REPEATABILITY / RB_RUN_BENCH gates).
repro:
	sh tools/repro/run.sh

# Full unit + integration suite with the outputs the repo records.
record:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

bench:
	go test -bench=. -benchmem

# The end-to-end benchmark (bench/) is a module of its own, outside
# `go build ./...` and `go test ./...`: vet it and run its own test (a
# small run of every workload, about 3 s) so an API change in serve or
# harness cannot break it silently.
bench-smoke:
	go -C bench vet .
	go -C bench test .

# Regenerate every paper table/figure at full size (see EXPERIMENTS.md).
experiments:
	go run ./cmd/experiments -run all

examples:
	go run ./examples/quickstart
	go run ./examples/cifar_resnet101
	go run ./examples/bert_finetune
	go run ./examples/hyperband
	go run ./examples/straggler_study
	go run ./examples/spot_market
	go run ./examples/grid_search

clean:
	go clean ./...
