#!/usr/bin/env sh
set -eu

# Reproducibility harness for the planner/simulator and the parallel
# scenario fan-out.
# Usage:
#   sh tools/repro/run.sh                         # fast deterministic suite
#   GOMAXPROCS=8 sh tools/repro/run.sh            # same results, more cores
#   RB_RUN_REPEATABILITY=1 sh tools/repro/run.sh  # include heavy repeatability test
#   RB_RUN_BENCH=1 sh tools/repro/run.sh          # include speedup benchmarks
#
# Every test below asserts bit-identical output across repeated runs,
# fresh Simulators and (for the scenario fan-out) worker counts, so the
# suite must pass unchanged at any GOMAXPROCS value.

export GOMAXPROCS=${GOMAXPROCS:-1}
export CGO_ENABLED=0

ROOT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)"
cd "$ROOT_DIR"

printf "== rbvet: determinism/purity invariants of the planning stack ==\n"
go run ./cmd/rbvet ./...

printf "\n== RNG stream derivation (golden values, independence) ==\n"
go test ./internal/stats -run "^(TestSplit|TestStream|TestHash64)" -count=1 -timeout=10m -v

printf "\n== Simulator determinism across call orders ==\n"
go test ./internal/sim -run "^(TestEstimateIndependentOfCallOrder|TestBreakdownDeterministic|TestSegmentDrawsMatchFullDAG)" -count=1 -timeout=10m -v

printf "\n== Planner determinism and memo cache ==\n"
go test ./internal/planner -run "^(TestPlanElasticDeterministicPerEstimator|TestMemoCache)" -count=1 -timeout=10m -v

printf "\n== Durable journal: codec goldens, corruption handling, crash-point recovery ==\n"
go test ./internal/journal -count=1 -timeout=10m
go test ./internal/harness -run "^(TestCrashPointSweepMem|TestSnapshotIntervalInvisible|TestResumeRefusesForeignJournal)$" -count=1 -timeout=10m -v

printf "\n== Multi-tenant control plane: arbiter differential, backpressure, cross-generation recovery ==\n"
go test ./internal/serve -run "^(TestSlackPolicyBeatsFIFOOnDeadlines|TestRunFleetDeterministic|TestServerBackpressure|TestServerCrashRecoveryAcrossGenerations)$" -count=1 -timeout=10m -v
go test ./internal/harness -run "^(TestArbitratedReplayBitIdentical|TestCheckFleetInvariantsCatchesViolations)$" -count=1 -timeout=10m -v

printf "\n== Race-detector pass: Simulators owned per goroutine, the fan-out helper ==\n"
# -race needs cgo; everything else stays CGO_ENABLED=0.
CGO_ENABLED=1 go test -race ./internal/sim ./internal/planner ./internal/stats ./internal/par -count=1 -timeout=20m

# Optional heavy tests
if [ "${RB_RUN_REPEATABILITY:-0}" = "1" ]; then
  printf "\n== Heavy repeatability test (500 samples, 4 fresh Simulators, 5 reps) ==\n"
  RB_RUN_REPEATABILITY=1 go test ./internal/sim -run "^TestEstimateHeavyRepeatability$" -count=1 -timeout=20m -v
fi
if [ "${RB_RUN_BENCH:-0}" = "1" ]; then
  printf "\n== Planning and fallback benchmarks ==\n"
  go test -run '^$' -bench 'PlanElastic100|SimEstimateFallback' -benchtime 3s -benchmem .
fi

printf "\nAll requested checks completed.\n"
