package planner

// This file implements the two-phase frontier search: every candidate set
// is first batch-scored by the simulator's analytic moment-propagation
// evaluator (microseconds per plan, no sampling), pruned down to a
// shortlist with a conservative safety margin, and only the shortlist is
// handed to the Monte-Carlo estimator. The margin combines the
// Monte-Carlo standard error the sampling estimate would carry
// (κ·σ/√samples) with a relative allowance for the analytic pass's
// moment-matching bias, so on the planner corpus the pruned search
// selects exactly the plan the exhaustive search would (asserted by the
// shortlist-safety tests). Profiles whose latencies lack finite second
// moments simply score as unprunable and flow to Monte-Carlo unchanged.

import (
	"math"
	"sync/atomic"

	"repro/internal/sim"
)

const (
	// pruneKappa is the prune margin in Monte-Carlo standard errors: a
	// candidate is dropped only when the analytic estimate puts it this
	// many standard errors past a bound.
	pruneKappa = 6.0
	// pruneBias is the relative allowance for the analytic estimator's
	// moment-matching bias (the dag-level validation bounds the per-stage
	// mean error near 1%; 2% is conservative for whole plans).
	pruneBias = 0.02
)

// frontierScreen wraps one analytic evaluator for a single search, plus
// the enumeration prune's per-candidate columns. A nil screen disables
// pruning (every candidate goes to Monte-Carlo). It lives in the
// search's scratch (see newSearch) and is not safe for concurrent use;
// scoring is so cheap it runs serially before the concurrent Monte-Carlo
// fan-out.
type frontierScreen struct {
	eval  *sim.AnalyticEval
	sqrtN float64

	aests []sim.Estimate
	aok   []bool
}

// score analytically evaluates plan. ok=false means the candidate cannot
// be pruned — unsupported moments, or an invalid plan whose error the
// Monte-Carlo path will surface — and must be estimated by sampling.
func (s *frontierScreen) score(plan sim.Plan) (sim.Estimate, bool) {
	if s == nil {
		return sim.Estimate{}, false
	}
	est, ok, err := s.eval.Estimate(plan)
	return est, err == nil && ok
}

// jctMargin is the safety slack around an analytic JCT: the sampling
// estimator's standard error at the simulator's budget plus the bias
// allowance.
func (s *frontierScreen) jctMargin(e sim.Estimate) float64 {
	return pruneKappa*e.JCTStd/s.sqrtN + pruneBias*e.JCT
}

// costMargin is the safety slack around an analytic cost.
func (s *frontierScreen) costMargin(e sim.Estimate) float64 {
	return pruneKappa*e.CostStd/s.sqrtN + pruneBias*e.Cost
}

// pruneEnumeration analytically prunes the static warm-start enumeration
// in place, clearing keep[i] for candidates that provably cannot win the
// search for the cheapest plan with JCT ≤ deadline. A candidate is
// dropped when it is surely infeasible (JCT minus margin past the
// deadline) or surely dominated (cost minus margin above the best
// surely-feasible candidate's cost plus margin). Like pruneDescentStep it keeps no minimum
// frontier, so every certified drop skips its Monte-Carlo estimate. The
// best surely-feasible candidate always survives, so the frontier
// empties only when every scored candidate is surely infeasible, and the
// search then returns ErrInfeasible as the exhaustive one does.
func (p *Planner) pruneEnumeration(scr *frontierScreen, cands []sim.Plan, keep []bool, deadline float64) {
	if scr == nil {
		return
	}
	n := len(cands)
	aests, aok := grow(scr.aests, n), grow(scr.aok, n)
	scr.aests, scr.aok = aests, aok
	for i := range cands {
		aok[i] = false
		if keep[i] {
			aests[i], aok[i] = scr.score(cands[i])
		}
	}
	// Upper bound on the optimum: the best surely-feasible candidate's
	// cost, overestimated by its own margin.
	bestUp := math.Inf(1)
	for i := range cands {
		if !keep[i] || !aok[i] {
			continue
		}
		e := aests[i]
		if up := e.Cost + scr.costMargin(e); e.JCT+scr.jctMargin(e) <= deadline && up < bestUp {
			bestUp = up
		}
	}
	var dropped int64
	for i := range cands {
		if !keep[i] || !aok[i] {
			continue
		}
		e := aests[i]
		if e.JCT-scr.jctMargin(e) > deadline || e.Cost-scr.costMargin(e) > bestUp {
			keep[i] = false
			dropped++
		}
	}
	atomic.AddInt64(&p.prunedCands, dropped)
}

// pruneDescentStep analytically prunes one greedy candidate set in place:
// a candidate whose JCT surely violates the deadline, or whose cost is
// surely no better than the current plan's, can never be the selected
// step (its benefit is −Inf, unselectable, and a sub-Delta improvement
// terminates the descent identically).
//
// It shares the enumeration prune's rule: no minimum frontier (an empty
// survivor set simply terminates the step, exactly as the exhaustive
// search would after estimating and rejecting every candidate), so every
// margin-certified drop converts directly into a skipped Monte-Carlo
// evaluation.
func (p *Planner) pruneDescentStep(scr *frontierScreen, cands []sim.Plan, keep []bool, cur Result, deadline float64) {
	if scr == nil {
		return
	}
	for i := range cands {
		est, ok := scr.score(cands[i])
		if !ok {
			continue
		}
		if est.JCT-scr.jctMargin(est) > deadline ||
			est.Cost-scr.costMargin(est) >= cur.Estimate.Cost {
			keep[i] = false
			atomic.AddInt64(&p.prunedCands, 1)
		}
	}
}

// PrunedCandidates reports how many frontier candidates the analytic
// screen excluded from Monte-Carlo estimation across the search so far.
func (p *Planner) PrunedCandidates() int64 { return atomic.LoadInt64(&p.prunedCands) } //rbvet:ignore unreached — BenchmarkPlanStatic and BenchmarkPlanElastic report pruned/op through it
