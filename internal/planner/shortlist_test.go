// Shortlist-safety corpus tests: the two-phase search (analytic batch
// scoring + margin pruning) must select exactly the plan the exhaustive
// single-phase Monte-Carlo search selects, across generated harness
// scenarios. Like
// the metamorphic suite, these live in an external package so they can
// reuse the chaos harness's scenario generator.
package planner_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/harness"
	"repro/internal/planner"
	"repro/internal/sim"
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

// enumerationRun is one enumeration search run twice on a scenario, once
// pruned and once exhaustive: the frontier's live candidate count, what
// the pruned run dropped and estimated, and its error.
type enumerationRun struct {
	live, pruned, estimates int64
	err                     error
}

// compareEnumeration runs search on a default planner and on the
// exhaustive reference for sc at deadline, and fails unless both return
// the same plan with a bit-identical estimate, or both return
// ErrInfeasible.
func compareEnumeration(t *testing.T, sc harness.Scenario, name string, deadline float64, live int64, search func(*planner.Planner) (planner.Result, error)) enumerationRun {
	t.Helper()
	fast, _ := newPlanner(t, sc, sc.Profile, sc.BatchSeed, 0.01)
	ref, _ := referencePlanner(t, sc, sc.BatchSeed)
	fast.Deadline, ref.Deadline = deadline, deadline
	fres, ferr := search(fast)
	rres, rerr := search(ref)
	switch {
	case ferr != nil || rerr != nil:
		if !errors.Is(ferr, planner.ErrInfeasible) || !errors.Is(rerr, planner.ErrInfeasible) {
			t.Fatalf("%d/%d %v %s: pruned error %v, exhaustive error %v", sc.BatchSeed, sc.Index, sc.Estimator, name, ferr, rerr)
		}
	case !fres.Plan.Equal(rres.Plan):
		t.Fatalf("%d/%d %v %s: pruned chose %v, exhaustive chose %v", sc.BatchSeed, sc.Index, sc.Estimator, name, fres.Plan, rres.Plan)
	case math.Float64bits(fres.Estimate.JCT) != math.Float64bits(rres.Estimate.JCT) ||
		math.Float64bits(fres.Estimate.Cost) != math.Float64bits(rres.Estimate.Cost):
		t.Fatalf("%d/%d %v %s: pruned estimate %+v != exhaustive %+v", sc.BatchSeed, sc.Index, sc.Estimator, name, fres.Estimate, rres.Estimate)
	}
	return enumerationRun{live: live, pruned: fast.PrunedCandidates(), estimates: fast.EstimateCalls(), err: ferr}
}

// TestEnumerationPruneSafetyOnCorpus: the static enumeration prune drops
// every margin-certified candidate, however few are live, so it is held
// to the exhaustive search on its own. Over the harness corpus, in both
// estimator modes, PlanStatic at the scenario's deadline and at the
// tightest deadline any static cluster's closed-form JCT meets returns
// the same plan with a bit-identical estimate as with
// DisableAnalyticPrune, or ErrInfeasible both ways. The corpus must
// prune on a frontier of at most 8 live candidates, which a shortlist
// floor of 8 would have restored whole, and must contain a frontier the
// prune empties as surely infeasible.
func TestEnumerationPruneSafetyOnCorpus(t *testing.T) {
	const seed, n = 211, 128
	var smallPruned, emptied int
	check := func(r enumerationRun) {
		if r.live <= 8 && r.pruned > 0 {
			smallPruned++
		}
		if r.live > 0 && r.pruned == r.live && r.estimates == 0 && errors.Is(r.err, planner.ErrInfeasible) {
			emptied++
		}
	}
	for i := 0; i < n; i++ {
		for _, mode := range []sim.EstimatorMode{sim.EstimatorSegment, sim.EstimatorAnalytic} {
			sc := harness.Generate(seed, i)
			sc.Estimator = mode
			probe, deadline := referencePlanner(t, sc, seed)
			jcts := probe.Sim.StaticClusterJCTs(sc.MaxGPUs, nil)
			live := func(d float64) (k int64) {
				for _, jct := range jcts {
					if jct <= d {
						k++
					}
				}
				return k
			}
			tightest := math.Inf(1)
			for _, jct := range jcts {
				tightest = min(tightest, jct)
			}
			static := (*planner.Planner).PlanStatic
			check(compareEnumeration(t, sc, "PlanStatic", deadline, live(deadline), static))
			check(compareEnumeration(t, sc, "PlanStatic tight", tightest, live(tightest), static))
		}
	}
	if smallPruned == 0 {
		t.Error("no frontier of at most 8 live candidates was pruned")
	}
	if emptied == 0 {
		t.Error("no frontier was pruned empty as surely infeasible")
	}
	t.Logf("%d small frontiers pruned, %d frontiers emptied", smallPruned, emptied)
}
