package replan

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// oracleDriver runs one controller through a script, deciding either
// with Replan or with its pre-screening oracle, refReplan.
type oracleDriver struct {
	t   *testing.T
	c   *Controller
	ref bool
	// screened records, for each decision of a driver deciding with the
	// oracle, whether its pre-screen kept the stale plan.
	screened []bool
}

func (d *oracleDriver) observe(gpus int, factor float64, from vclock.Time, n int) {
	pred := d.c.cfg.Profile.IterDist(gpus).Mean()
	for i := 0; i < n; i++ {
		d.c.ObserveIteration(gpus, factor*pred, from+vclock.Time(i))
	}
}

func (d *oracleDriver) decide(st State, reason Reason) Decision {
	d.t.Helper()
	var dec Decision
	var err error
	if d.ref {
		var screened bool
		dec, screened, err = d.c.refReplan(st, reason)
		d.screened = append(d.screened, screened)
	} else {
		dec, err = d.c.Replan(st, reason)
	}
	if err != nil {
		d.t.Fatal(err)
	}
	return dec
}

// last returns the plan the driver's latest decision left in force.
func (d *oracleDriver) last() sim.Plan {
	ds := d.c.Decisions()
	return ds[len(ds)-1].NewPlan
}

// oracleScripts are the decision sequences Replan is held to its oracle
// on: drift slowdowns across stages, a preemption, a quiet regime whose
// conditions 1–2 leave the oracle's call to its analytic mini-plan
// (twice at one stage and tail, on the Simulator the first decision
// released; the oracle screens it exactly when the queue delay has
// finite moments), a speed-up that accumulates slack, a lost deadline,
// and provisioning drift.
var oracleScripts = map[string]func(d *oracleDriver){
	"slowdown": func(d *oracleDriver) {
		d.observe(4, 2, 0, 5)
		d.decide(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift)
		d.observe(1, 2.2, 200, 3)
		d.decide(State{Stage: 1, Now: 300, RemainingIters: 2, Plan: d.last()}, ReasonDrift)
		d.decide(State{Stage: 1, Now: 400, RemainingIters: 1, Plan: d.last()}, ReasonDrift)
	},
	"preemption": func(d *oracleDriver) {
		d.decide(State{Stage: 0, Now: 5, RemainingIters: 4, Plan: sim.NewPlan(8, 4, 2)}, ReasonPreemption)
		d.observe(2, 1, 10, 4)
		d.decide(State{Stage: 1, Now: 90, RemainingIters: 3, Plan: d.last()}, ReasonPreemption)
	},
	"quiet": func(d *oracleDriver) {
		st := optimalState(d.t)
		d.observe(4, 1, 0, 4)
		for i := 0; i < 2; i++ {
			_, finite := stats.DistMoment(d.c.cfg.Cloud.Overheads.QueueDelay)
			dec := d.decide(st, ReasonDrift)
			if d.ref && d.screened[i] != finite {
				d.t.Fatalf("quiet regime screened %v, queue delay with finite moments %v: %+v", d.screened[i], finite, dec)
			}
		}
	},
	"speedup": func(d *oracleDriver) {
		d.observe(4, 0.4, 0, 5)
		d.decide(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift)
		d.decide(State{Stage: 0, Now: 40, RemainingIters: 2, Plan: d.last()}, ReasonDrift)
	},
	"lost-deadline": func(d *oracleDriver) {
		d.observe(4, 1.5, 0, 4)
		d.decide(State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift)
	},
	"provisioning": func(d *oracleDriver) {
		d.c.ObserveProvision(60)
		d.observe(4, 1.3, 0, 4)
		d.decide(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(16, 8, 4)}, ReasonDrift)
		d.c.ObserveProvision(10)
		d.decide(State{Stage: 1, Now: 200, RemainingIters: 3, Plan: d.last()}, ReasonPreemption)
	},
}

// TestReplanMatchesThreeSimulatorOracle: a controller deciding with one
// search per decision, its Simulator, re-fit and decision storage
// recycled from decision to decision, commits exactly the decisions and
// detector state of the controller that pre-screens drift triggers on
// Simulators of their own, under a light-tailed queue delay and under a
// heavy-tailed one (Pareto α = 2.5, finite variance).
func TestReplanMatchesThreeSimulatorOracle(t *testing.T) {
	for name, script := range oracleScripts {
		for _, heavy := range []bool{false, true} {
			var runs [2]*oracleDriver
			for i := range runs {
				cfg := testConfig(t)
				if heavy {
					cfg.Cloud.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 2.5}
				}
				c, err := NewController(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = &oracleDriver{t: t, c: c, ref: i == 1}
				script(runs[i])
			}
			got, want := runs[0], runs[1]
			if !reflect.DeepEqual(got.c.Decisions(), want.c.Decisions()) {
				t.Fatalf("%s heavy %v: decisions\n %+v\noracle\n %+v",
					name, heavy, got.c.Decisions(), want.c.Decisions())
			}
			if !reflect.DeepEqual(got.c.DetectorState(), want.c.DetectorState()) {
				t.Fatalf("%s: detector state %+v, oracle %+v", name, got.c.DetectorState(), want.c.DetectorState())
			}
		}
	}
}

// TestDecisionPlansShareStorage: an unadopted decision's NewPlan is its
// OldPlan, storage included, and neither aliases the caller's plan.
func TestDecisionPlansShareStorage(t *testing.T) {
	c := newTestController(t)
	live := sim.NewPlan(4, 4, 4)
	d, err := c.Replan(State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: live}, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	if d.Adopted || &d.NewPlan.Alloc[0] != &d.OldPlan.Alloc[0] {
		t.Fatalf("unadopted decision does not share its plan: %+v", d)
	}
	live.Alloc[2] = 1
	if d.OldPlan.Alloc[2] != 4 {
		t.Fatal("the decision aliases the caller's plan")
	}
}
