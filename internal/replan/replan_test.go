package replan

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// flatProfile predicts a constant iteration latency at every allocation.
type flatProfile struct{ mean float64 }

func (p flatProfile) IterDist(gpus int) stats.Dist {
	return stats.Deterministic{Value: p.mean / float64(gpus)}
}

func testSpec(t *testing.T) *spec.ExperimentSpec {
	t.Helper()
	s, err := spec.New(
		spec.Stage{Trials: 4, Iters: 4},
		spec.Stage{Trials: 2, Iters: 4},
		spec.Stage{Trials: 1, Iters: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Spec:     testSpec(t),
		Profile:  flatProfile{mean: 40},
		Cloud:    sim.DefaultCloudProfile(),
		Deadline: 2000,
		MaxGPUs:  16,
	}
}

func newTestController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil spec", func(c *Config) { c.Spec = nil }},
		{"nil profile", func(c *Config) { c.Profile = nil }},
		{"zero deadline", func(c *Config) { c.Deadline = 0 }},
		{"nan deadline", func(c *Config) { c.Deadline = math.NaN() }},
		{"inf deadline", func(c *Config) { c.Deadline = math.Inf(1) }},
		{"zero max gpus", func(c *Config) { c.MaxGPUs = 0 }},
		{"nan threshold", func(c *Config) { c.Threshold = math.NaN() }},
		{"inf threshold", func(c *Config) { c.Threshold = math.Inf(1) }},
		{"nan cooldown", func(c *Config) { c.CooldownSeconds = math.NaN() }},
		{"inf cooldown", func(c *Config) { c.CooldownSeconds = math.Inf(1) }},
		{"bad cloud", func(c *Config) { c.Cloud.Instance.GPUs = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			tc.mutate(&cfg)
			if _, err := NewController(cfg); err == nil {
				t.Fatalf("NewController accepted %s", tc.name)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := NewController(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfg
	if cfg.Threshold != 0.25 || cfg.CooldownSeconds != 60 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestOnProfileNeverTriggers is the detector half of the zero-drift no-op
// guarantee: observations exactly matching the prediction keep the EWMA at
// exactly 1, so the detector never fires no matter how many arrive.
func TestOnProfileNeverTriggers(t *testing.T) {
	c := newTestController(t)
	for i := 0; i < 100; i++ {
		pred := c.cfg.Profile.IterDist(4).Mean()
		if c.ObserveIteration(4, pred, vclock.Time(i)) {
			t.Fatalf("detector fired on observation %d with zero drift", i)
		}
	}
}

func TestDriftTriggersAfterMinObservations(t *testing.T) {
	c := newTestController(t)
	pred := c.cfg.Profile.IterDist(4).Mean()
	for i := 0; i < 2; i++ {
		if c.ObserveIteration(4, 2*pred, vclock.Time(i)) {
			t.Fatalf("detector fired at observation %d, MinObservations is 3", i+1)
		}
	}
	if !c.ObserveIteration(4, 2*pred, 2) {
		t.Fatal("detector did not fire at 2x drift after MinObservations")
	}
}

func TestSpeedupAlsoTriggers(t *testing.T) {
	c := newTestController(t)
	pred := c.cfg.Profile.IterDist(2).Mean()
	fired := false
	for i := 0; i < 10 && !fired; i++ {
		fired = c.ObserveIteration(2, 0.4*pred, vclock.Time(i))
	}
	if !fired {
		t.Fatal("detector never fired at 0.4x (speedup) drift")
	}
}

func TestCooldownGatesTriggers(t *testing.T) {
	c := newTestController(t)
	pred := c.cfg.Profile.IterDist(4).Mean()
	for i := 0; i < 5; i++ {
		c.ObserveIteration(4, 2*pred, vclock.Time(i))
	}
	if _, err := c.Replan(State{Stage: 0, Now: 10, RemainingIters: 2, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift); err != nil {
		t.Fatal(err)
	}
	if c.ObserveIteration(4, 2*pred, 30) {
		t.Fatal("detector fired 20s after a replan; cooldown is 60s")
	}
	if c.PreemptionTrigger(30) {
		t.Fatal("preemption trigger allowed during cooldown")
	}
	if !c.ObserveIteration(4, 2*pred, 80) {
		t.Fatal("detector stayed quiet after the cooldown elapsed")
	}
	if !c.PreemptionTrigger(80) {
		t.Fatal("preemption trigger blocked after the cooldown elapsed")
	}
}

func TestReplanRejectsLastStage(t *testing.T) {
	c := newTestController(t)
	if _, err := c.Replan(State{Stage: 2, Now: 0, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift); err == nil {
		t.Fatal("Replan accepted the last stage")
	}
	if _, err := c.Replan(State{Stage: 0, Now: 0, Plan: sim.NewPlan(4, 4)}, ReasonDrift); err == nil {
		t.Fatal("Replan accepted a plan not covering the spec")
	}
}

// TestReplanPreservesPrefix checks splice semantics: a decision never
// rewrites the executing stage or any stage before it.
func TestReplanPreservesPrefix(t *testing.T) {
	c := newTestController(t)
	pred := c.cfg.Profile.IterDist(1).Mean()
	for i := 0; i < 5; i++ {
		c.ObserveIteration(1, 2*pred, vclock.Time(i))
	}
	d, err := c.Replan(State{Stage: 1, Now: 100, RemainingIters: 2, Plan: sim.NewPlan(8, 2, 2)}, ReasonDrift)
	if err != nil {
		t.Fatal(err)
	}
	if d.NewPlan.Alloc[0] != 8 || d.NewPlan.Alloc[1] != 2 {
		t.Fatalf("replan rewrote executed stages: %v", d.NewPlan)
	}
	if d.NewPlan.Max() > c.cfg.MaxGPUs {
		t.Fatalf("replanned peak %d exceeds cap %d", d.NewPlan.Max(), c.cfg.MaxGPUs)
	}
	if !d.Adopted && !d.NewPlan.Equal(d.OldPlan) {
		t.Fatalf("not adopted but plan changed: %v -> %v", d.OldPlan, d.NewPlan)
	}
}

// TestReplanLostDeadlineInfeasible: when the remaining deadline is already
// negative before the tail starts, the decision is infeasible and keeps
// the stale plan without running the planner.
func TestReplanLostDeadlineInfeasible(t *testing.T) {
	c := newTestController(t)
	d, err := c.Replan(State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: sim.NewPlan(4, 4, 4)}, ReasonPreemption)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Infeasible || d.Adopted {
		t.Fatalf("lost deadline not classified infeasible: %+v", d)
	}
	if !d.NewPlan.Equal(d.OldPlan) {
		t.Fatalf("infeasible decision changed the plan: %v -> %v", d.OldPlan, d.NewPlan)
	}
	if d.RemainingDeadline > 0 {
		t.Fatalf("remaining deadline %v, want <= 0", d.RemainingDeadline)
	}
}

// driveController feeds a fixed observation sequence and takes two replan
// decisions; used to compare controllers across replays.
func driveController(t *testing.T, c *Controller) []Decision {
	t.Helper()
	pred1 := c.cfg.Profile.IterDist(1).Mean()
	pred4 := c.cfg.Profile.IterDist(4).Mean()
	for i := 0; i < 4; i++ {
		c.ObserveIteration(4, 1.9*pred4, vclock.Time(10+i))
	}
	c.ObserveProvision(25)
	if _, err := c.Replan(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.ObserveIteration(1, 2.2*pred1, vclock.Time(200+i))
	}
	if _, err := c.Replan(State{Stage: 1, Now: 300, RemainingIters: 2, Plan: c.Decisions()[0].NewPlan}, ReasonPreemption); err != nil {
		t.Fatal(err)
	}
	return c.Decisions()
}

// TestDecisionsReplayable: re-driving a fresh controller reproduces the
// exact decision sequence (same RNG seed, same observations).
func TestDecisionsReplayable(t *testing.T) {
	a := driveController(t, newTestController(t))
	b := driveController(t, newTestController(t))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n first: %+v\n second: %+v", a, b)
	}
	if len(a) != 2 || a[0].Seq != 0 || a[1].Seq != 1 {
		t.Fatalf("unexpected decision sequence: %+v", a)
	}
}

// fmtNote is the fmt rendering Decision.Note must reproduce byte for
// byte.
func fmtNote(d Decision) string {
	switch {
	case d.Infeasible:
		return fmt.Sprintf("%s: infeasible under remaining deadline %.0fs, kept %v", d.Reason, d.RemainingDeadline, fmtPlan(d.OldPlan))
	case d.Adopted:
		return fmt.Sprintf("%s: adopted %v (stale %v), tail JCT %.0fs ≤ %.0fs", d.Reason, fmtPlan(d.NewPlan), fmtPlan(d.OldPlan), d.NewEstimate.JCT, d.RemainingDeadline)
	default:
		return fmt.Sprintf("%s: kept %v", d.Reason, fmtPlan(d.OldPlan))
	}
}

// fmtPlan renders a plan as "(8, 8, 4, 2)" through fmt.
func fmtPlan(p sim.Plan) string {
	parts := make([]string, len(p.Alloc))
	for i, a := range p.Alloc {
		parts[i] = fmt.Sprint(a)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TestNoteMatchesFmt: Note renders every decision kind exactly as the fmt
// formats would, and AppendNote appends that text, for random plans and for estimates and deadlines that
// are NaN, infinite, negative zero, halfway cases or huge.
func TestNoteMatchesFmt(t *testing.T) {
	r := stats.NewRNG(3)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.5, 1.5, 2.5, -0.5, -2.5, 1e21, -3.7e300, 123.456}
	plan := func() sim.Plan {
		a := make([]int, r.Intn(5))
		for i := range a {
			a[i] = r.Intn(2000) - 100
		}
		return sim.Plan{Alloc: a}
	}
	val := func() float64 {
		if r.Intn(2) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return (r.Float64() - 0.3) * math.Pow(10, float64(r.Intn(8)))
	}
	for i := 0; i < 2000; i++ {
		d := Decision{
			Reason:            []Reason{ReasonDrift, ReasonPreemption}[r.Intn(2)],
			RemainingDeadline: val(),
			OldPlan:           plan(),
			NewPlan:           plan(),
			StaleEstimate:     sim.Estimate{JCT: val()},
			NewEstimate:       sim.Estimate{JCT: val()},
		}
		switch i % 3 {
		case 0:
			d.Infeasible = true
		case 1:
			d.Adopted = true
		}
		if got, want := d.Note(), fmtNote(d); got != want {
			t.Fatalf("decision %d: Note() = %q, fmt renders %q", i, got, want)
		}
		if got, want := string(d.AppendNote([]byte("prefix|"))), "prefix|"+fmtNote(d); got != want {
			t.Fatalf("decision %d: AppendNote = %q, want %q", i, got, want)
		}
	}
}

// TestStaleAndNewTailsShareEstimator: a decision prices the stale tail
// and the tail it adopts with the one estimator its search selects on,
// so the adoption test compares like with like: both are analytic, so a
// Simulator of the suffix under the re-fitted profile reproduces them
// bit for bit, under a light-tailed queue delay and under a heavy-tailed
// one (Pareto α = 2.5, finite variance).
func TestStaleAndNewTailsShareEstimator(t *testing.T) {
	for _, heavy := range []bool{false, true} {
		cfg := testConfig(t)
		cfg.Deadline = 700 // the stale one-GPU tail misses it at the drifted latency
		if heavy {
			cfg.Cloud.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 2.5}
		}
		c, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := &oracleDriver{t: t, c: c}
		d.observe(4, 2, 0, 5)
		dec := d.decide(State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 1, 1)}, ReasonDrift)
		if !dec.Adopted {
			t.Fatalf("heavy %v: the decision kept its tail; the test is vacuous: %+v", heavy, dec)
		}
		prof, cp, err := c.refitProfiles()
		if err != nil {
			t.Fatal(err)
		}
		sm, err := sim.New(cfg.Spec.Suffix(1), prof, cp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []struct {
			plan sim.Plan
			got  sim.Estimate
		}{{dec.OldPlan.Suffix(1), dec.StaleEstimate}, {dec.NewPlan.Suffix(1), dec.NewEstimate}} {
			want, err := sm.Estimate(tail.plan)
			if err != nil {
				t.Fatal(err)
			}
			if tail.got != want {
				t.Fatalf("heavy %v: tail %v priced %+v by the decision, %+v by Estimate", heavy, tail.plan, tail.got, want)
			}
		}
	}
}
