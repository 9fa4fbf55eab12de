package replan

import (
	"fmt"
	"math"

	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
)

// preScreenTolerance is the relative movement in the stale tail's
// analytic JCT or cost (re-fitted vs planning-time profile) below which
// the reference's drift pre-screen judges a trigger immaterial and
// skips the full replan.
const preScreenTolerance = 0.05

// refReplan is Replan as it was before a decision became one search: a
// drift trigger first goes through the analytic pre-screen, which scores
// the stale tail on two analytic Simulators of its own (re-fitted and
// planning-time profiles) and runs a mini-plan on the re-fitted one, and
// the decision's own Simulator is built only after the screen. A
// trigger the screen judges immaterial is committed without the full
// replan, and screened reports it. It commits exactly like Replan, so a
// controller driven through it is the oracle Replan's decisions are held
// to: a screened decision keeps the stale tail, which the full replan
// keeps too.
func (c *Controller) refReplan(state State, reason Reason) (d Decision, screened bool, _ error) {
	if state.Stage < 0 || state.Stage >= c.cfg.Spec.NumStages()-1 {
		return Decision{}, false, fmt.Errorf("replan: stage %d of %d has no tail to replan", state.Stage, c.cfg.Spec.NumStages())
	}
	if err := state.Plan.Validate(c.cfg.Spec.NumStages()); err != nil {
		return Decision{}, false, err
	}

	seq := len(c.decisions)
	d = Decision{
		Seq:     seq,
		At:      state.Now,
		Reason:  reason,
		Stage:   state.Stage,
		Ratio:   c.ratio(),
		OldPlan: state.Plan.Clone(),
		NewPlan: state.Plan.Clone(),
	}

	prof, cp, err := c.refitProfiles()
	if err != nil {
		return Decision{}, false, err
	}

	// Predict the remainder of the executing stage under the re-fitted
	// profile; the tail's budget is what's left of the deadline after it.
	st := c.cfg.Spec.Stage(state.Stage)
	per := sim.GPUsPerTrial(state.Plan.Alloc[state.Stage], st.Trials)
	curRemaining := float64(state.RemainingIters) * prof.IterDist(per).Mean()
	d.RemainingDeadline = c.cfg.Deadline - float64(state.Now) - curRemaining

	if d.RemainingDeadline <= 0 {
		// The deadline is already lost before the tail even starts; no
		// plan can fix that.
		d.Infeasible = true
		c.commit(d, state.Now)
		return d, false, nil
	}

	suffix := c.cfg.Spec.Suffix(state.Stage + 1)
	staleTail := state.Plan.Suffix(state.Stage + 1)

	// Analytic drift pre-screen (drift triggers only — a preemption
	// changed the capacity itself and must always replan): rescore the
	// stale tail in microseconds under the re-fitted and planning-time
	// profiles; when neither its feasibility nor its economics moved
	// materially, a full replan would re-derive the same tail the original
	// planner chose, so the decision is committed without one.
	if reason == ReasonDrift {
		if est, material, ok := c.refScreenTail(prof, cp, suffix, staleTail, d.RemainingDeadline); ok && !material {
			d.StaleEstimate = est
			c.commit(d, state.Now)
			return d, true, nil
		}
	}

	sm, err := sim.New(suffix, prof, cp, 0, nil)
	if err != nil {
		return Decision{}, false, err
	}
	staleEst, err := sm.Estimate(staleTail)
	if err != nil {
		return Decision{}, false, err
	}
	d.StaleEstimate = staleEst
	staleFeasible := staleEst.JCT <= d.RemainingDeadline

	p := &planner.Planner{
		Sim:      sm,
		Deadline: d.RemainingDeadline,
		MaxGPUs:  c.cfg.MaxGPUs,
		Delta:    adoptDelta,
	}
	res, perr := p.PlanElastic()
	switch {
	case perr == planner.ErrInfeasible:
		// No planner tail fits; the job is infeasible-after-drift unless
		// the stale tail itself still makes the deadline.
		d.Infeasible = !staleFeasible
	case perr != nil:
		return Decision{}, false, perr
	default:
		if !staleFeasible || res.Estimate.Cost < staleEst.Cost-adoptDelta {
			d.Adopted = true
			d.NewEstimate = res.Estimate
			d.NewPlan = state.Plan.Splice(state.Stage+1, res.Plan)
		}
	}
	c.commit(d, state.Now)
	return d, false, nil
}

// analyticSim returns a new Simulator of suffix that evaluates tails
// under the given profiles.
func (c *Controller) analyticSim(suffix *spec.ExperimentSpec, prof sim.TrainProfile, cp sim.CloudProfile) (*sim.Simulator, error) {
	return sim.New(suffix, prof, cp, 0, nil)
}

// analyticTail analytically estimates a tail plan on sm. ok=false means
// the profile's latencies lack finite moments.
func analyticTail(sm *sim.Simulator, tail sim.Plan) (sim.Estimate, bool) {
	est, err := sm.Estimate(tail)
	return est, err == nil
}

// refScreenTail is the analytic drift pre-screen on analytic Simulators
// of its own: one per profile for the stale tail's scores, the
// re-fitted one also running the mini-plan. material is true when a
// full replan could plausibly change the executed plan:
//
//  1. the stale tail's re-fitted analytic JCT approaches the remaining
//     deadline;
//  2. the tail's analytic JCT or cost moved by more than
//     preScreenTolerance between the planning-time and re-fitted
//     profiles;
//  3. an analytic-only replan of the suffix finds a tail whose cost is
//     within tolerance of beating the stale tail by adoptDelta.
//
// ok=false means the screen could not score the tail (no finite
// moments) and the full replan must run.
func (c *Controller) refScreenTail(prof sim.TrainProfile, cp sim.CloudProfile, suffix *spec.ExperimentSpec, staleTail sim.Plan, remaining float64) (stale sim.Estimate, material, ok bool) {
	refitSim, err := c.analyticSim(suffix, prof, cp)
	if err != nil {
		return sim.Estimate{}, false, false
	}
	baseSim, err := c.analyticSim(suffix, c.cfg.Profile, c.cfg.Cloud)
	if err != nil {
		return sim.Estimate{}, false, false
	}
	refit, ok1 := analyticTail(refitSim, staleTail)
	base, ok2 := analyticTail(baseSim, staleTail)
	if !ok1 || !ok2 {
		return sim.Estimate{}, false, false
	}
	const tol = preScreenTolerance
	if refit.JCT*(1+tol) >= remaining ||
		math.Abs(refit.JCT-base.JCT) > tol*base.JCT ||
		math.Abs(refit.Cost-base.Cost) > tol*base.Cost {
		return refit, true, true
	}
	// Conditions 1–2 are quiet; check 3 with an analytic-only replan on
	// the refit simulator, whose segment table already holds the stale
	// tail's moments. The mini-plan is deterministic and costs
	// microseconds per candidate.
	p := &planner.Planner{
		Sim:      refitSim,
		Deadline: remaining,
		MaxGPUs:  c.cfg.MaxGPUs,
		Delta:    adoptDelta,
	}
	res, perr := p.PlanElastic()
	switch {
	case perr == planner.ErrInfeasible:
		// No planner tail fits analytically while the stale one does; the
		// full replan would keep the stale tail. Immaterial.
	case perr != nil:
		material = true
	default:
		// An analytic optimum that IS the stale tail can never be adopted:
		// the full replan estimates both through the same memoized
		// simulator, and a plan is never cheaper than itself by
		// adoptDelta. A different optimum is material when its cost is
		// within tolerance of beating the stale tail by the adoption
		// margin.
		material = !res.Plan.Equal(staleTail) &&
			res.Estimate.Cost < refit.Cost-adoptDelta+tol*refit.Cost
	}
	return refit, material, true
}
