package planner

import (
	"math"

	"repro/internal/sim"
)

// The unmerged search: PlanElastic as it ran before descents merged and
// searches ran on pooled scratch. The static enumeration prices every
// size through StaticClusterJCT, and each warm-start descent runs to its
// end on its own, every step on freshly allocated candidates and
// columns. It is the oracle the merged search is held to, bit for bit.

// ReferenceSearch runs the unmerged search on p: its result, each
// warm-start descent's result in descent order, and its error.
func ReferenceSearch(p *Planner) (Result, []Result, error) { return p.referenceSearch() }

// MergedSearch runs PlanElastic's search on p and also returns each
// descent's result, as the merged search recorded it, in descent order.
func MergedSearch(p *Planner) (Result, []Result, error) { return p.mergedSearch() }

func (p *Planner) mergedSearch() (Result, []Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, nil, err
	}
	ss := newSearch()
	defer ss.release()
	res, err := p.planElastic(ss)
	descents := append([]Result(nil), ss.done...)
	for i := range descents {
		descents[i].Plan = descents[i].Plan.Clone()
	}
	return res, descents, err
}

func (p *Planner) referenceSearch() (Result, []Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, nil, err
	}
	staticBest, err := p.referencePlanStatic()
	if err != nil {
		return Result{}, nil, err
	}
	var descents []Result
	best := staticBest
	maxGPUs := p.maxGPUs()
	for _, mult := range p.warmStarts() {
		warm := staticBest.Plan.Clone()
		for i := range warm.Alloc {
			warm.Alloc[i] *= mult
			if warm.Alloc[i] > maxGPUs {
				warm.Alloc[i] = maxGPUs
			}
		}
		warmEst, err := p.estimate(warm)
		if err != nil {
			return Result{}, nil, err
		}
		if warmEst.JCT > p.Deadline && mult != 1 {
			continue
		}
		res, err := p.referenceDescent(Result{Plan: warm, Estimate: warmEst})
		if err != nil {
			return Result{}, nil, err
		}
		descents = append(descents, res)
		if res.Estimate.JCT <= p.Deadline && res.Estimate.Cost < best.Estimate.Cost {
			best = res
		}
	}
	return best, descents, nil
}

// referencePlanStatic enumerates static sizes 1..MaxGPUs on fresh
// columns, bracketing each size with its own StaticClusterJCT call.
func (p *Planner) referencePlanStatic() (Result, error) {
	n := p.maxGPUs()
	stages := p.Sim.Spec().NumStages()
	cands := make([]sim.Plan, n)
	keep := make([]bool, n)
	for i := range cands {
		cands[i] = sim.Uniform(i+1, stages)
		keep[i] = p.Sim.StaticClusterJCT(i+1) <= p.Deadline
	}
	ests := make([]sim.Estimate, n)
	errs := make([]error, n)
	p.estimateAll(cands, keep, ests, errs)
	best, found := Result{}, false
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return Result{}, errs[i]
		}
		if !keep[i] || ests[i].JCT > p.Deadline {
			continue
		}
		if !found || ests[i].Cost < best.Estimate.Cost {
			best, found = Result{Plan: cands[i], Estimate: ests[i]}, true
		}
	}
	if !found {
		return Result{}, ErrInfeasible
	}
	return best, nil
}

// referenceDescent is one greedy descent of Algorithm 2 run to its end,
// with no record of other descents.
func (p *Planner) referenceDescent(cur Result) (Result, error) {
	gpn := p.Sim.Cloud().Instance.GPUs
	if p.DisableInstanceStep {
		gpn = 0
	}
	for {
		cands := generateCandidates(new(candSet), cur.Plan, p.Sim.Spec(), gpn)
		if len(cands) == 0 {
			return cur, nil
		}
		keep := make([]bool, len(cands))
		for i := range keep {
			keep[i] = true
		}
		ests := make([]sim.Estimate, len(cands))
		errs := make([]error, len(cands))
		p.estimateAll(cands, keep, ests, errs)
		bestIdx, bestBenefit := -1, math.Inf(-1)
		var bestEst sim.Estimate
		for i := range cands {
			if errs[i] != nil {
				return Result{}, errs[i]
			}
			if ests[i].JCT > p.Deadline {
				continue
			}
			benefit := marginalBenefit(cur.Estimate, ests[i])
			if p.RawCostSelection {
				benefit = cur.Estimate.Cost - ests[i].Cost
			}
			if benefit > bestBenefit {
				bestIdx, bestBenefit, bestEst = i, benefit, ests[i]
			}
		}
		if bestIdx < 0 || cur.Estimate.Cost-bestEst.Cost < p.delta() {
			return cur, nil
		}
		cur = Result{Plan: cands[bestIdx], Estimate: bestEst}
	}
}

// sameResult reports whether two search outcomes agree exactly: equal
// plans, bit-identical JCT and cost, and the same error.
func sameResult(a Result, aerr error, b Result, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return a.Plan.Equal(b.Plan) &&
		math.Float64bits(a.Estimate.JCT) == math.Float64bits(b.Estimate.JCT) &&
		math.Float64bits(a.Estimate.Cost) == math.Float64bits(b.Estimate.Cost)
}

// sameDescents reports whether two searches' per-descent results agree
// exactly (see sameResult).
func sameDescents(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameResult(a[i], nil, b[i], nil) {
			return false
		}
	}
	return true
}

// SameResult and SameDescents export the comparisons to the external
// test package.
var (
	SameResult   = sameResult
	SameDescents = sameDescents
)
