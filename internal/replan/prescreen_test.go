package replan

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
)

// screenTestController builds a controller with the analytic pre-screen
// either enabled or disabled, over the shared test config.
func screenTestController(t *testing.T, disable bool) *Controller {
	t.Helper()
	cfg := testConfig(t, 1)
	cfg.disablePreScreen = disable
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// observeOnProfile feeds n observations that exactly match the profile's
// prediction, so the re-fit reproduces the planning-time regime.
func observeOnProfile(c *Controller, n int) {
	pred := c.cfg.Profile.IterDist(4).Mean()
	for i := 0; i < n; i++ {
		c.ObserveIteration(4, pred, vclock.Time(i))
	}
}

// optimalState returns an executor state whose stale tail is the full
// replan's own choice for it — the fixed point a second replan under an
// unchanged regime cannot improve on.
func optimalState(t *testing.T) State {
	t.Helper()
	probe := screenTestController(t, true)
	observeOnProfile(probe, 4)
	st := State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}
	d, err := probe.Replan(st, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	return State{Stage: 0, Now: 30, RemainingIters: 3, Plan: d.NewPlan}
}

// TestPreScreenSkipsImmaterialTrigger: a drift trigger with on-profile
// observations and an already-optimal stale tail is judged immaterial —
// the decision is committed as Screened without Monte-Carlo, and it keeps
// exactly the plan the full replan would have kept.
func TestPreScreenSkipsImmaterialTrigger(t *testing.T) {
	st := optimalState(t)

	fast := screenTestController(t, false)
	observeOnProfile(fast, 4)
	fd, err := fast.Replan(st, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	if !fd.Screened {
		t.Fatalf("immaterial trigger was not screened: %+v", fd)
	}
	if fd.Adopted || fd.Infeasible || !fd.NewPlan.Equal(st.Plan) {
		t.Fatalf("screened decision changed the plan: %+v", fd)
	}

	full := screenTestController(t, true)
	observeOnProfile(full, 4)
	rd, err := full.Replan(st, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Screened {
		t.Fatal("disablePreScreen did not disable the screen")
	}
	if rd.Adopted || !rd.NewPlan.Equal(fd.NewPlan) {
		t.Fatalf("screen diverged from the full replan: screened %+v, full %+v", fd, rd)
	}
}

// TestPreScreenPassesMaterialSlowdown: a genuine 2x slowdown moves the
// re-fitted tail far past tolerance, so the screen lets the Monte-Carlo
// replan run and the decision is bit-identical to the screen-disabled
// controller's.
func TestPreScreenPassesMaterialSlowdown(t *testing.T) {
	run := func(disable bool) Decision {
		c := screenTestController(t, disable)
		pred := c.cfg.Profile.IterDist(4).Mean()
		for i := 0; i < 5; i++ {
			c.ObserveIteration(4, 2*pred, vclock.Time(i))
		}
		d, err := c.Replan(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fd, rd := run(false), run(true)
	if fd.Screened {
		t.Fatalf("2x slowdown was screened out: %+v", fd)
	}
	if !reflect.DeepEqual(fd, rd) {
		t.Fatalf("material decision diverged from screen-disabled controller:\n screened-path %+v\n full %+v", fd, rd)
	}
}

// TestPreScreenPassesSpeedupSlack: when iterations run faster than
// profiled, the stale tail barely moves but the slack may admit a
// cheaper tail — the mini-plan condition must classify that as material
// and hand the call to the Monte-Carlo replan, whose decision stays
// bit-identical to the screen-disabled controller's. (The harness pin
// (4, 50) covers the end-to-end case where such a replan adopts.)
func TestPreScreenPassesSpeedupSlack(t *testing.T) {
	run := func(disable bool) Decision {
		c := screenTestController(t, disable)
		pred := c.cfg.Profile.IterDist(4).Mean()
		for i := 0; i < 5; i++ {
			c.ObserveIteration(4, 0.4*pred, vclock.Time(i))
		}
		d, err := c.Replan(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fd, rd := run(false), run(true)
	if fd.Screened {
		t.Fatalf("speed-up slack was screened out: %+v", fd)
	}
	if !reflect.DeepEqual(fd, rd) {
		t.Fatalf("slack decision diverged from screen-disabled controller:\n screened-path %+v\n full %+v", fd, rd)
	}
}

// TestPreemptionBypassesScreen: preemptions change capacity itself, so
// even a regime the screen would call immaterial goes to the full replan.
func TestPreemptionBypassesScreen(t *testing.T) {
	st := optimalState(t)
	c := screenTestController(t, false)
	observeOnProfile(c, 4)
	d, err := c.Replan(st, ReasonPreemption)
	if err != nil {
		t.Fatal(err)
	}
	if d.Screened {
		t.Fatalf("preemption decision was screened: %+v", d)
	}
}

// TestPreScreenReadOnly: the public PreScreen entry point commits no
// decision, arms no cooldown, and agrees with the screening the next
// drift Replan applies.
func TestPreScreenReadOnly(t *testing.T) {
	for _, material := range []bool{false, true} {
		c := screenTestController(t, false)
		var st State
		if material {
			pred := c.cfg.Profile.IterDist(4).Mean()
			for i := 0; i < 5; i++ {
				c.ObserveIteration(4, 2*pred, vclock.Time(i))
			}
			st = State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}
		} else {
			observeOnProfile(c, 4)
			st = optimalState(t)
		}
		ps, err := c.PreScreen(st)
		if err != nil {
			t.Fatal(err)
		}
		if !ps.Supported {
			t.Fatalf("material=%v: screen unsupported on finite-moment profile", material)
		}
		if ps.Material != material {
			t.Fatalf("PreScreen material=%v, want %v", ps.Material, material)
		}
		if len(c.Decisions()) != 0 {
			t.Fatal("PreScreen committed a decision")
		}
		again, err := c.PreScreen(st)
		if err != nil {
			t.Fatal(err)
		}
		if again != ps {
			t.Fatalf("PreScreen not deterministic: %+v then %+v", ps, again)
		}
		d, err := c.Replan(st, ReasonDrift)
		if err != nil {
			t.Fatal(err)
		}
		if d.Screened == ps.Material {
			t.Fatalf("PreScreen (material=%v) disagrees with Replan (screened=%v)", ps.Material, d.Screened)
		}
	}
}

// TestPreScreenRejectsBadState mirrors Replan's state validation.
func TestPreScreenRejectsBadState(t *testing.T) {
	c := screenTestController(t, false)
	if _, err := c.PreScreen(State{Stage: 2, Plan: sim.NewPlan(4, 4, 4)}); err == nil {
		t.Fatal("PreScreen accepted the last stage")
	}
	if _, err := c.PreScreen(State{Stage: 0, Plan: sim.NewPlan(4, 4)}); err == nil {
		t.Fatal("PreScreen accepted a plan not covering the spec")
	}
}

// TestPreScreenLostDeadlineMaterial: a remaining deadline at or below
// zero is always material — the full replan must run to record the
// infeasibility.
func TestPreScreenLostDeadlineMaterial(t *testing.T) {
	c := screenTestController(t, false)
	ps, err := c.PreScreen(State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: sim.NewPlan(4, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Supported || !ps.Material || ps.RemainingDeadline > 0 {
		t.Fatalf("lost deadline not material: %+v", ps)
	}
	d, err := c.Replan(State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	if d.Screened || !d.Infeasible {
		t.Fatalf("lost-deadline decision: %+v", d)
	}
}
