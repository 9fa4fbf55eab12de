package replan

import (
	"fmt"
	"math"

	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
)

// refReplan is Replan as it was before one Simulator served a whole
// decision: the pre-screen scores the stale tail on two analytic
// Simulators of its own (re-fitted and planning-time profiles) and runs
// its mini-plan on the re-fitted one, and the Monte-Carlo Simulator is
// built only after the screen. It commits exactly like Replan, so a
// controller driven through it is the oracle Replan's decisions are
// held to.
func (c *Controller) refReplan(state State, reason Reason) (Decision, error) {
	if state.Stage < 0 || state.Stage >= c.cfg.Spec.NumStages()-1 {
		return Decision{}, fmt.Errorf("replan: stage %d of %d has no tail to replan", state.Stage, c.cfg.Spec.NumStages())
	}
	if err := state.Plan.Validate(c.cfg.Spec.NumStages()); err != nil {
		return Decision{}, err
	}

	seq := len(c.decisions)
	d := Decision{
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
		return Decision{}, err
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
		return d, nil
	}

	suffix := c.cfg.Spec.Suffix(state.Stage + 1)
	staleTail := state.Plan.Suffix(state.Stage + 1)

	// Analytic drift pre-screen (drift triggers only — a preemption
	// changed the capacity itself and must always replan): rescore the
	// stale tail in microseconds under the re-fitted and planning-time
	// profiles; when neither its feasibility nor its economics moved
	// materially, a full replan would re-derive the same tail the original
	// planner chose, so the decision is committed without Monte-Carlo.
	if reason == ReasonDrift && !c.cfg.disablePreScreen {
		if est, material, ok := c.refScreenTail(prof, cp, suffix, staleTail, d.RemainingDeadline); ok && !material {
			d.StaleEstimate = est
			d.Screened = true
			c.commit(d, state.Now)
			return d, nil
		}
	}

	sm, err := sim.New(suffix, prof, cp, c.cfg.Samples, c.cfg.RNG.Stream(uint64(seq)),
		sim.WithWorkers(1), sim.WithEstimator(c.cfg.Estimator))
	if err != nil {
		return Decision{}, err
	}
	staleEst, err := sm.Estimate(staleTail)
	if err != nil {
		return Decision{}, err
	}
	d.StaleEstimate = staleEst
	staleFeasible := staleEst.JCT <= d.RemainingDeadline

	p := &planner.Planner{
		Sim:      sm,
		Deadline: d.RemainingDeadline,
		MaxGPUs:  c.cfg.MaxGPUs,
		Workers:  1,
		Delta:    adoptDelta,
	}
	res, perr := p.PlanElastic()
	switch {
	case perr == planner.ErrInfeasible:
		// No planner tail fits; the job is infeasible-after-drift unless
		// the stale tail itself still makes the deadline.
		d.Infeasible = !staleFeasible
	case perr != nil:
		return Decision{}, perr
	default:
		if !staleFeasible || res.Estimate.Cost < staleEst.Cost-adoptDelta {
			d.Adopted = true
			d.NewEstimate = res.Estimate
			d.NewPlan = state.Plan.Splice(state.Stage+1, res.Plan)
		}
	}
	c.commit(d, state.Now)
	return d, nil
}

// refScreenTail is screenTail on three analytic Simulators: one per
// profile for the stale tail's scores, the re-fitted one also running
// the mini-plan.
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
		Workers:  1,
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
