// Command rbfuzz runs the deterministic end-to-end chaos harness: it
// generates seeded scenarios (experiment specs, workloads, pricing,
// provisioning overheads, fault models, deadlines), executes each through
// the full pipeline — spec → simulation → planner → placement → elastic
// executor — on the virtual clock, and checks system-wide invariant
// oracles (cost conservation, usage metering, gang-scheduling integrity,
// no lost trials, deadline semantics, bit-identical replay).
//
// Usage:
//
//	rbfuzz -seed 1 -n 64           # one batch, all oracles, with replay
//	rbfuzz -seed 1 -n 64 -workers 8
//	rbfuzz -seed 1 -index 52 -v    # re-run one failing scenario verbosely
//	rbfuzz -seed 1 -n 64 -replan on -drift-threshold 0.15
//	rbfuzz -seed 1 -n 64 -crash    # add crash/recovery equivalence checks
//	rbfuzz -serve-replay t.json    # verify an rbserve replay tuple offline
//
// Everything derives from -seed: a failure printed by any run reproduces
// bit-identically with `go run ./cmd/rbfuzz -seed S -index I`, at any
// -workers count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/harness"
	"repro/internal/serve"
)

// verifyServeReplay re-derives an rbserve experiment's digest offline:
// the tuple's recorded grant sequence is scripted into a fresh gated run
// of the same submission and the digest must match bit for bit.
func verifyServeReplay(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbfuzz:", err)
		return 2
	}
	var t serve.ReplayTuple
	if err := json.Unmarshal(data, &t); err != nil {
		fmt.Fprintf(os.Stderr, "rbfuzz: parsing %s: %v\n", path, err)
		return 2
	}
	d, err := serve.VerifyReplay(t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbfuzz: replay %s: %v\n", t.ID, err)
		return 1
	}
	fmt.Printf("rbfuzz: replay %s ok, digest %016x matches\n", t.ID, uint64(d))
	return 0
}

// scenarioOverrides turns the -replan and -drift-threshold flags into a
// per-scenario mutation (nil when both keep the per-scenario draws).
// Forcing replanning on skips scenarios that carry arbiter caps: a gated
// run cannot also replan (both rewrite the live plan), so those keep
// their drawn configuration instead of failing before they start.
func scenarioOverrides(rpl string, drift float64) (func(*harness.Scenario), error) {
	var mutate func(*harness.Scenario)
	switch rpl {
	case "auto":
	case "on":
		mutate = func(sc *harness.Scenario) {
			if len(sc.ArbiterCaps) == 0 {
				sc.ReplanEnabled = true
			}
		}
	case "off":
		mutate = func(sc *harness.Scenario) { sc.ReplanEnabled = false }
	default:
		return nil, fmt.Errorf("-replan must be auto, on or off (got %q)", rpl)
	}
	if drift == 0 {
		return mutate, nil
	}
	if !(drift > 0) || math.IsInf(drift, 1) {
		return nil, fmt.Errorf("-drift-threshold must be a finite positive number (got %v)", drift)
	}
	return func(sc *harness.Scenario) {
		if mutate != nil {
			mutate(sc)
		}
		sc.DriftThreshold = drift
	}, nil
}

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "batch seed; scenario i is a pure function of (seed, i)")
		n       = flag.Int("n", 64, "number of scenarios to run")
		index   = flag.Int("index", -1, "run only this scenario index (failure drill-down)")
		workers = flag.Int("workers", 8, "scenario-level parallelism (results are identical at any width)")
		replay  = flag.Bool("replay", true, "run every scenario twice and require bit-identical digests")
		crash   = flag.Bool("crash", false, "kill each scenario's control plane at a seeded journal point and require bit-identical recovery")
		verbose = flag.Bool("v", false, "print every scenario, not just failures")
		rpl     = flag.String("replan", "auto", "online replanning controller: auto (per-scenario draw), on, or off")
		drift   = flag.Float64("drift-threshold", 0, "override the replan controller's EWMA trigger threshold (0 = per-scenario draw)")
		srvRep  = flag.String("serve-replay", "", "verify an rbserve replay tuple JSON file and exit")
	)
	flag.Parse()

	if *srvRep != "" {
		os.Exit(verifyServeReplay(*srvRep))
	}

	mutate, err := scenarioOverrides(*rpl, *drift)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbfuzz:", err)
		os.Exit(2)
	}

	opts := harness.Options{Seed: *seed, Scenarios: *n, Workers: *workers, Replay: *replay, CrashCheck: *crash, Mutate: mutate}
	var reports []harness.ScenarioReport
	var batchDigest harness.Digest
	if *index >= 0 {
		reports = []harness.ScenarioReport{harness.RunIndex(opts, *index)}
		batchDigest = reports[0].Digest
	} else {
		rep := harness.RunBatch(opts)
		reports, batchDigest = rep.Scenarios, rep.BatchDigest
	}

	failed := 0
	for i := range reports {
		r := &reports[i]
		idx := r.Scenario.Index
		if *verbose || r.Failed() {
			status := "ok"
			if r.Failed() {
				status = "FAIL"
			}
			fmt.Printf("scenario %d [%s] digest=%016x steps=%d\n  %s\n",
				idx, status, uint64(r.Digest), r.Steps, r.Scenario)
		}
		if !r.Failed() {
			continue
		}
		failed++
		if r.Err != nil {
			fmt.Printf("  pipeline error: %v\n", r.Err)
		}
		for _, v := range r.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		fmt.Printf("  reproduce: go run ./cmd/rbfuzz -seed %d -index %d -v\n", *seed, idx)
	}

	fmt.Printf("rbfuzz: %d scenario(s), %d failure(s), batch digest %016x\n",
		len(reports), failed, uint64(batchDigest))
	if failed > 0 {
		os.Exit(1)
	}
}
