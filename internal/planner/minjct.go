package planner

import (
	"math"

	"repro/internal/sim"
	"repro/internal/spec"
)

// PlanMinJCT solves the dual problem the paper notes its techniques
// extend to (§2, footnote 1): minimize job completion time subject to a
// cost budget in dollars.
//
// The search mirrors Algorithm 2 with the roles of the objectives
// swapped: the warm start is the JCT-optimal static allocation whose
// predicted cost fits the budget, and the greedy loop *increments*
// per-stage allocations — choosing, each step, the candidate with the
// largest JCT reduction per added dollar — until the budget is exhausted
// or no candidate improves JCT meaningfully.
func (p *Planner) PlanMinJCT(budget float64) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if budget <= 0 {
		return Result{}, ErrInfeasible
	}
	ss := p.newSearch()
	defer ss.release()

	// Warm start: the fastest static allocation within budget. The
	// frontier is analytically screened first (minimize JCT subject to
	// the budget), then sizes are evaluated concurrently and reduced in
	// ascending order, matching the serial enumeration exactly.
	n := p.maxGPUs()
	cands := ss.staticPlans(n, p.Sim.Spec().NumStages())
	keep, ests, errs := ss.columns(n)
	p.pruneEnumeration(ss.screen, cands, keep, budget, true)
	p.estimateAll(cands, keep, ests, errs)
	best := Result{}
	found := false
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return Result{}, errs[i]
		}
		if !keep[i] || ests[i].Cost > budget {
			continue
		}
		if !found || ests[i].JCT < best.Estimate.JCT {
			best = Result{Plan: cands[i], Estimate: ests[i]}
			found = true
		}
	}
	if !found {
		return Result{}, ErrInfeasible
	}

	cur := best
	sp := p.Sim.Spec()
	gpn := p.Sim.Cloud().Instance.GPUs
	for {
		cands := generateUpCandidates(&ss.cands, cur.Plan, sp, gpn, n)
		if len(cands) == 0 {
			break
		}
		keep, ests, errs := ss.columns(len(cands))
		p.pruneDescentStep(ss.screen, cands, keep, cur, budget, true)
		p.estimateAll(cands, keep, ests, errs)
		bestIdx := -1
		bestBenefit := math.Inf(-1)
		var bestEst sim.Estimate
		for i := range cands {
			if errs[i] != nil {
				return Result{}, errs[i]
			}
			if !keep[i] {
				continue
			}
			est := ests[i]
			if est.Cost > budget {
				continue
			}
			benefit := jctBenefit(cur.Estimate, est)
			if benefit > bestBenefit {
				bestIdx, bestBenefit, bestEst = i, benefit, est
			}
		}
		if bestIdx < 0 {
			break // every candidate blows the budget
		}
		if cur.Estimate.JCT-bestEst.JCT < 1 { // < 1 s of improvement
			break
		}
		// The candidate set is scratch the next step overwrites.
		cur = Result{Plan: ss.step(cands[bestIdx]), Estimate: bestEst}
	}
	if cur.Estimate.JCT < best.Estimate.JCT {
		best = cur
	}
	// best may alias the static plans or a step, both scratch.
	best.Plan = best.Plan.Clone()
	return best, nil
}

// jctBenefit mirrors Equation 1 for the dual: JCT reduction per dollar of
// added cost. Candidates that also reduce cost are unboundedly good;
// candidates that slow the job are unboundedly bad.
func jctBenefit(cur, cand sim.Estimate) float64 {
	dJCT := cur.JCT - cand.JCT
	dCost := cand.Cost - cur.Cost
	if dJCT <= 0 {
		return math.Inf(-1)
	}
	if dCost <= 0 {
		return math.Inf(1)
	}
	return dJCT / dCost
}

// generateUpCandidates produces per-stage increments of the current plan:
// the next higher fair value, and the smallest fair value that adds a
// whole instance (the ascent mirror of generateCandidates). The
// loop-invariant spec, instance size and cap are passed in so the greedy
// loop resolves them once rather than per iteration. Like
// generateCandidates it replaces c's contents.
func generateUpCandidates(c *candSet, cur sim.Plan, sp *spec.ExperimentSpec, gpn, maxGPUs int) []sim.Plan {
	c.reset(cur)
	for i := range cur.Alloc {
		trials := sp.Stage(i).Trials
		if v, ok := fairStepUp(cur.Alloc[i], trials, maxGPUs); ok {
			c.add(i, v)
		}
		if gpn > 0 {
			curInstances := (cur.Alloc[i] + gpn - 1) / gpn
			target := curInstances*gpn + 1 // first allocation on a new instance
			if v, ok := fairCeil(target, trials, maxGPUs); ok && v > cur.Alloc[i] {
				c.add(i, v)
			}
		}
	}
	return c.plans
}

// fairStepUp returns the smallest allocation strictly above alloc (and at
// most max) that divides trials evenly, and whether one exists.
func fairStepUp(alloc, trials, max int) (int, bool) {
	return fairCeil(alloc+1, trials, max)
}

// fairCeil returns the smallest allocation v in [min, max] that is a
// factor or multiple of trials, and whether one exists.
func fairCeil(min, trials, max int) (int, bool) {
	for v := min; v <= max; v++ {
		if v%trials == 0 || trials%v == 0 {
			return v, true
		}
	}
	return 0, false
}
