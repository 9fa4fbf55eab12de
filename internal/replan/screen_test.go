package replan

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// observeOnProfile feeds n observations that exactly match the profile's
// prediction, so the re-fit reproduces the planning-time regime.
func observeOnProfile(c *Controller, n int) {
	pred := c.cfg.Profile.IterDist(4).Mean()
	for i := 0; i < n; i++ {
		c.ObserveIteration(4, pred, vclock.Time(i))
	}
}

// optimalState returns an executor state whose stale tail is the
// replan's own choice for it — the fixed point a second replan under an
// unchanged regime cannot improve on.
func optimalState(t *testing.T) State {
	t.Helper()
	probe := newTestController(t)
	observeOnProfile(probe, 4)
	st := State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}
	d, err := probe.Replan(st, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	return State{Stage: 0, Now: 30, RemainingIters: 3, Plan: d.NewPlan}
}

// observeFactor feeds n observations at 4 GPUs running factor times the
// profile's prediction.
func observeFactor(factor float64, n int) func(*Controller) {
	return func(c *Controller) {
		pred := c.cfg.Profile.IterDist(4).Mean()
		for i := 0; i < n; i++ {
			c.ObserveIteration(4, factor*pred, vclock.Time(i))
		}
	}
}

// matchesScreenedReference decides state for reason, after observe, on
// two controllers — one with Replan's single search, one with the
// pre-screening reference refReplan — and requires the same decision in
// every field and the same detector state, on analytic moments and on
// the Monte-Carlo fallback a queue delay without a finite variance
// forces. screened is whether the reference's screen must keep the
// stale plan without a replan when every latency has finite moments; on
// the fallback it never can.
func matchesScreenedReference(t *testing.T, observe func(*Controller), state State, reason Reason, screened bool) {
	t.Helper()
	for _, heavy := range []bool{false, true} {
		var decs [2]Decision
		var states [2]DetectorState
		var refScreened bool
		for i := range decs {
			cfg := testConfig(t)
			if heavy {
				cfg.Cloud.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 1.5}
			}
			c, err := NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			observe(c)
			if i == 0 {
				decs[i], err = c.Replan(state, reason)
			} else {
				decs[i], refScreened, err = c.refReplan(state, reason)
			}
			if err != nil {
				t.Fatal(err)
			}
			states[i] = c.DetectorState()
		}
		if want := screened && !heavy; refScreened != want {
			t.Fatalf("heavy %v: the reference screened %v, want %v", heavy, refScreened, want)
		}
		if !reflect.DeepEqual(decs[0], decs[1]) {
			t.Fatalf("heavy %v: decision\n %+v\nreference\n %+v", heavy, decs[0], decs[1])
		}
		if !reflect.DeepEqual(states[0], states[1]) {
			t.Fatalf("heavy %v: detector state %+v, reference %+v", heavy, states[0], states[1])
		}
	}
}

// fourFours is a stage-0 state of the (4, 4, 4) plan.
var fourFours = State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}

// TestPreScreenSkipsImmaterialTrigger: a drift trigger with on-profile
// observations and an already-optimal stale tail is the one the
// reference's pre-screen judges immaterial and commits without a
// replan; Replan's one search commits exactly that decision.
func TestPreScreenSkipsImmaterialTrigger(t *testing.T) {
	matchesScreenedReference(t, func(c *Controller) { observeOnProfile(c, 4) }, optimalState(t), ReasonDrift, true)
}

// TestPreemptionBypassesScreen: a preemption in the same quiet regime
// bypasses the reference's screen (the capacity itself changed), and
// Replan decides as the reference's full replan does.
func TestPreemptionBypassesScreen(t *testing.T) {
	matchesScreenedReference(t, func(c *Controller) { observeOnProfile(c, 4) }, optimalState(t), ReasonPreemption, false)
}

// TestPreScreenPassesMaterialSlowdown: a 2× slowdown moves the re-fitted
// tail far past the reference screen's tolerance, so the reference
// replans, and Replan decides as it does.
func TestPreScreenPassesMaterialSlowdown(t *testing.T) {
	matchesScreenedReference(t, observeFactor(2, 5), fourFours, ReasonDrift, false)
}

// TestPreScreenPassesSpeedupSlack: iterations 0.4× as long as profiled
// barely move the stale tail, but the slack may admit a cheaper tail;
// the reference screen's mini-plan lets the replan run, and Replan
// decides as it does.
func TestPreScreenPassesSpeedupSlack(t *testing.T) {
	matchesScreenedReference(t, observeFactor(0.4, 5), fourFours, ReasonDrift, false)
}

// TestPreScreenLostDeadlineMaterial: a remaining deadline at or below
// zero is committed as infeasible before any screen, by the reference
// and by Replan alike.
func TestPreScreenLostDeadlineMaterial(t *testing.T) {
	matchesScreenedReference(t, observeFactor(1.5, 4), State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift, false)
}
