package main

import (
	"math"
	"testing"

	"repro/internal/harness"
)

// TestReplanOnSkipsCappedScenarios: forcing replanning on must not turn
// cap-carrying (gated) scenarios into pipeline errors. Seed 1's first 40
// scenarios include several with arbiter caps.
func TestReplanOnSkipsCappedScenarios(t *testing.T) {
	mutate, err := scenarioOverrides("on", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := harness.RunBatch(harness.Options{Seed: 1, Scenarios: 40, Workers: 1, Mutate: mutate})
	capped, replanned := 0, 0
	for _, r := range rep.Scenarios {
		if r.Err != nil {
			t.Errorf("scenario %d: pipeline error: %v", r.Scenario.Index, r.Err)
		}
		if len(r.Scenario.ArbiterCaps) > 0 {
			capped++
		} else if r.Scenario.ReplanEnabled {
			replanned++
		}
	}
	if capped == 0 || replanned == 0 {
		t.Fatalf("batch exercised %d capped and %d replanning scenarios, want both", capped, replanned)
	}
}

func TestDriftThresholdMustBeFinitePositive(t *testing.T) {
	for _, d := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := scenarioOverrides("auto", d); err == nil {
			t.Errorf("-drift-threshold %v accepted", d)
		}
	}
	if _, err := scenarioOverrides("sometimes", 0); err == nil {
		t.Error("-replan sometimes accepted")
	}
	mutate, err := scenarioOverrides("off", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sc := harness.Scenario{ReplanEnabled: true}
	mutate(&sc)
	if sc.ReplanEnabled || sc.DriftThreshold != 0.15 {
		t.Fatalf("overrides not applied: %+v", sc)
	}
}
