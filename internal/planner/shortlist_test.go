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
// tightest deadline any static cluster's closed-form JCT meets, and
// PlanMinJCT at a budget around the static plan's cost, return the same
// plan with a bit-identical estimate as with DisableAnalyticPrune, or
// ErrInfeasible both ways. The corpus must prune on a frontier of at
// most 8 live candidates, which a shortlist floor of 8 would have
// restored whole, and must contain a frontier the prune empties as
// surely infeasible.
func TestEnumerationPruneSafetyOnCorpus(t *testing.T) {
	const seed, n = 211, 128
	var smallPruned, emptied int
	// PlanMinJCT's count includes its ascent's prunes, so only
	// PlanStatic, which is the enumeration alone, counts as a small
	// frontier pruned.
	check := func(r enumerationRun, enumerationOnly bool) {
		if enumerationOnly && r.live <= 8 && r.pruned > 0 {
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
			check(compareEnumeration(t, sc, "PlanStatic", deadline, live(deadline), static), true)
			check(compareEnumeration(t, sc, "PlanStatic tight", tightest, live(tightest), static), true)

			// A budget 1.5x the static plan's cost leaves the ascent room;
			// without a static plan, the widest cluster's cost.
			budget := 0.0
			if res, err := probe.PlanStatic(); err == nil {
				budget = 1.5 * res.Estimate.Cost
			} else if est, err := probe.Sim.Estimate(sim.Uniform(sc.MaxGPUs, sc.Spec.NumStages())); err == nil {
				budget = est.Cost
			} else {
				t.Fatal(err)
			}
			minJCT := func(p *planner.Planner) (planner.Result, error) { return p.PlanMinJCT(budget) }
			check(compareEnumeration(t, sc, "PlanMinJCT", deadline, int64(sc.MaxGPUs), minJCT), false)
		}
	}
	// Every cluster's cost is far above a budget of a millionth of a
	// cent, so the whole dual frontier is surely infeasible.
	sc := harness.Generate(seed, 0)
	sc.Estimator = sim.EstimatorSegment
	_, deadline := referencePlanner(t, sc, seed)
	broke := func(p *planner.Planner) (planner.Result, error) { return p.PlanMinJCT(1e-8) }
	check(compareEnumeration(t, sc, "PlanMinJCT broke", deadline, int64(sc.MaxGPUs), broke), false)
	if smallPruned == 0 {
		t.Error("no frontier of at most 8 live candidates was pruned")
	}
	if emptied == 0 {
		t.Error("no frontier was pruned empty as surely infeasible")
	}
	t.Logf("%d small frontiers pruned, %d frontiers emptied", smallPruned, emptied)
}
