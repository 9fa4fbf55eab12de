// Shortlist-safety corpus tests: the two-phase search (analytic batch
// scoring + margin pruning) must select exactly the plan the exhaustive
// single-phase Monte-Carlo search selects, across generated harness
// scenarios. Like
// the metamorphic suite, these live in an external package so they can
// reuse the chaos harness's scenario generator.
package planner_test

import (
	"math"
	"testing"

	"repro/internal/harness"
	"repro/internal/planner"
)

// referencePlanner mirrors newPlanner with the two-phase machinery
// disabled — the exhaustive search the pruned one is checked against.
func referencePlanner(t *testing.T, sc harness.Scenario, seed uint64) (*planner.Planner, float64) {
	t.Helper()
	p, deadline := newPlanner(t, sc, sc.Profile, seed, 0.01)
	p.DisableAnalyticPrune = true
	return p, deadline
}

// TestShortlistSafetyOnCorpus: over the scenario corpus (all estimator
// modes, billing models and spec shapes the generator draws), the default
// two-phase PlanElastic returns the same plan with a bit-identical
// estimate as the exhaustive search, and the analytic screen actually
// prunes work somewhere (the corpus is not vacuous).
func TestShortlistSafetyOnCorpus(t *testing.T) {
	const seed, n = 137, 10
	var pruned, saved int64
	for _, sc := range metamorphicScenarios(t, seed, n) {
		fast, _ := newPlanner(t, sc, sc.Profile, seed, 0.01)
		ref, _ := referencePlanner(t, sc, seed)
		fres, ferr := fast.PlanElastic()
		rres, rerr := ref.PlanElastic()
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("%v: feasibility diverged: two-phase %v, exhaustive %v", sc, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if !fres.Plan.Equal(rres.Plan) {
			t.Fatalf("%v: two-phase chose %v, exhaustive chose %v", sc, fres.Plan, rres.Plan)
		}
		if math.Float64bits(fres.Estimate.JCT) != math.Float64bits(rres.Estimate.JCT) ||
			math.Float64bits(fres.Estimate.Cost) != math.Float64bits(rres.Estimate.Cost) {
			t.Fatalf("%v: two-phase estimate %+v != exhaustive %+v", sc, fres.Estimate, rres.Estimate)
		}
		pruned += fast.PrunedCandidates()
		saved += ref.EstimateCalls() - fast.EstimateCalls()
	}
	if pruned == 0 {
		t.Error("analytic screen pruned nothing across the corpus")
	}
	if saved <= 0 {
		t.Errorf("two-phase search did not reduce estimate calls (saved %d)", saved)
	}
}

// TestMinJCTPruneSafetyOnCorpus: the dual planner's two-phase search is
// held to the same standard — identical plan and bit-identical estimate
// versus the exhaustive search, with the budget set around each
// scenario's elastic cost so the ascent has room to move.
func TestMinJCTPruneSafetyOnCorpus(t *testing.T) {
	const seed, n = 29, 6
	for _, sc := range metamorphicScenarios(t, seed, n) {
		probe, _ := referencePlanner(t, sc, seed)
		base, err := probe.PlanElastic()
		if err != nil {
			continue
		}
		budget := 1.5 * base.Estimate.Cost
		fast, _ := newPlanner(t, sc, sc.Profile, seed, 0.01)
		ref, _ := referencePlanner(t, sc, seed)
		fres, ferr := fast.PlanMinJCT(budget)
		rres, rerr := ref.PlanMinJCT(budget)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("%v: feasibility diverged: two-phase %v, exhaustive %v", sc, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if !fres.Plan.Equal(rres.Plan) {
			t.Fatalf("%v: two-phase chose %v, exhaustive chose %v", sc, fres.Plan, rres.Plan)
		}
		if math.Float64bits(fres.Estimate.JCT) != math.Float64bits(rres.Estimate.JCT) ||
			math.Float64bits(fres.Estimate.Cost) != math.Float64bits(rres.Estimate.Cost) {
			t.Fatalf("%v: two-phase estimate %+v != exhaustive %+v", sc, fres.Estimate, rres.Estimate)
		}
	}
}
