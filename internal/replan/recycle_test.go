package replan

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// scriptRun is everything a script decides on a controller: its
// decisions, its detector state and its rendered notes.
type scriptRun struct {
	decisions []Decision
	state     DetectorState
	notes     []string
}

// runScript runs script on c, freshly initialised for cfg.
func runScript(t *testing.T, c *Controller, cfg Config, script func(*oracleDriver)) scriptRun {
	t.Helper()
	if err := c.Init(cfg); err != nil {
		t.Fatal(err)
	}
	d := &oracleDriver{t: t, c: c}
	script(d)
	out := scriptRun{decisions: c.Decisions(), state: c.DetectorState()}
	for _, dec := range out.decisions {
		out.notes = append(out.notes, dec.Note())
	}
	return out
}

// wideConfig is a four-stage job on twice the GPUs under a later
// deadline: a run on it grows every buffer of a controller beyond what
// testConfig's runs need.
func wideConfig(t *testing.T) Config {
	t.Helper()
	s, err := spec.New(
		spec.Stage{Trials: 8, Iters: 4},
		spec.Stage{Trials: 4, Iters: 4},
		spec.Stage{Trials: 2, Iters: 4},
		spec.Stage{Trials: 1, Iters: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Spec, cfg.MaxGPUs, cfg.Deadline = s, 32, 4000
	return cfg
}

// wideScript drifts on three allocations and decides at three stages,
// adopting on the way: more decisions, plans, observations and stages
// than any of oracleScripts.
func wideScript(d *oracleDriver) {
	d.c.ObserveProvision(70)
	d.observe(1, 1.8, 0, 4)
	d.observe(2, 1.6, 4, 4)
	d.observe(8, 2.1, 8, 4)
	d.decide(State{Stage: 0, Now: 40, RemainingIters: 3, Plan: sim.NewPlan(32, 16, 8, 4)}, ReasonDrift)
	d.decide(State{Stage: 1, Now: 300, RemainingIters: 2, Plan: d.last()}, ReasonPreemption)
	d.observe(4, 0.5, 310, 4)
	d.decide(State{Stage: 2, Now: 900, RemainingIters: 1, Plan: d.last()}, ReasonDrift)
	d.decide(State{Stage: 2, Now: 1000, RemainingIters: 1, Plan: d.last()}, ReasonPreemption)
}

// noisyProfile is flatProfile with a normal spread of sigma at 1 GPU.
type noisyProfile struct{ mean, sigma float64 }

func (p noisyProfile) IterDist(gpus int) stats.Dist {
	return stats.Normal{Mu: p.mean / float64(gpus), Sigma: p.sigma / float64(gpus)}
}

// slowConfig is testConfig under a slower, noisy planning-time profile:
// a decision on it estimates the same stale tails as on testConfig, with
// other numbers, and its re-fits carry a spread, so a controller that
// kept an estimate or the 1-GPU σ across Init would decide otherwise.
func slowConfig(t *testing.T) Config {
	cfg := testConfig(t)
	cfg.Profile = noisyProfile{mean: 52, sigma: 6}
	return cfg
}

// decideQuietState decides the quiet regime's state.
func decideQuietState(d *oracleDriver) {
	d.observe(4, 1, 0, 4)
	d.decide(optimalState(d.t), ReasonDrift)
}

// TestControllerResetMatchesNew: a controller initialised again after a
// run — a larger one on another job, a smaller one, or one on the same
// job under another, noisy profile that decided on the same tail —
// decides, snapshots and renders exactly what a new controller does,
// and the Decisions taken from the earlier run are left as they were.
func TestControllerResetMatchesNew(t *testing.T) {
	wide := runScript(t, new(Controller), wideConfig(t), wideScript)
	if len(wide.decisions) != 4 || !slices.ContainsFunc(wide.decisions, func(d Decision) bool { return d.Adopted }) {
		t.Fatalf("the larger run takes %d decisions, adopted none or not 4: %+v", len(wide.decisions), wide.decisions)
	}
	for name, script := range oracleScripts {
		cfg := testConfig(t)
		want := runScript(t, new(Controller), cfg, script)
		for _, prev := range []struct {
			name   string
			cfg    Config
			script func(*oracleDriver)
		}{
			{"larger", wideConfig(t), wideScript},
			{"smaller", testConfig(t), oracleScripts["lost-deadline"]},
			{"slower-profile", slowConfig(t), decideQuietState},
		} {
			c := new(Controller)
			first := runScript(t, c, prev.cfg, prev.script)
			kept := runScript(t, new(Controller), prev.cfg, prev.script).decisions
			got := runScript(t, c, cfg, script)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s after a %s run:\n %+v\nnew controller:\n %+v", name, prev.name, got, want)
			}
			if !reflect.DeepEqual(first.decisions, kept) {
				t.Errorf("%s after a %s run: the %s run's decisions changed when the controller was reused", name, prev.name, prev.name)
			}
		}
	}
}

// TestResetDropsPointers: a reset controller holds no observer, no
// decision, no configuration and no Simulator state of its run. It
// keeps its Simulator, with its table, for the next run.
func TestResetDropsPointers(t *testing.T) {
	c := new(Controller)
	runScript(t, c, testConfig(t), oracleScripts["provisioning"])
	c.SetObserver(func(Decision) {})
	c.Reset()
	if c.observer != nil || c.cfg != (Config{}) || len(c.decisions) != 0 || c.queueLat != (stats.Scaled{}) || c.initLat != (stats.Scaled{}) {
		t.Fatal("Reset kept a pointer into the finished run")
	}
	if slices.ContainsFunc(c.decisions[:cap(c.decisions)], func(d Decision) bool { return d.OldPlan.Alloc != nil || d.NewPlan.Alloc != nil }) {
		t.Fatal("Reset kept the finished run's decisions")
	}
	if c.sm == nil {
		t.Fatal("Reset dropped the controller's Simulator")
	}
	if c.sm.Spec() != nil {
		t.Fatal("Reset kept the Simulator's job")
	}
	if c.pl.Sim != nil {
		t.Fatal("Reset kept the Planner's Simulator")
	}
}

// exactAllocs runs the rest of the test on one P with the collector
// off: a pooled item then stays where the next Get finds it, and no
// collection empties a pool, so a measurement takes exactly its own
// allocations.
//
//rbvet:impure(GOMAXPROCS only pins an allocation count to one P; no scheduler state reaches a decision)
func exactAllocs(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// The allocations of one decision per outcome on a warm, recycled
// controller: the measured count plus 5 % slack. What a decision hands
// out is allocated by its callers (the trace note, the journal record,
// the Decisions copy), so none of it is counted here. What is left is
// the 1-GPU σ of the run's first re-fit, which boxes the planning-time
// distribution once per run (the whole of an infeasible decision), the
// planner's returned plan of each search, and, for most of it, the
// profile's iteration distributions that the Simulator's share column
// boxes once per per-trial share it reads.
const (
	screenedAllocs   = 18 * 105 / 100
	infeasibleAllocs = 1 * 105 / 100
	keptAllocs       = 18 * 105 / 100
	adoptedAllocs    = 18 * 105 / 100
)

// allocConfig is testConfig with its flat profile measured: a profile
// type whose mean iteration latency sim.IterMean takes without boxing a
// distribution, as the harness's model profile is, and which predicts
// the flat profile's latencies at every power of two.
func allocConfig(t *testing.T) Config {
	t.Helper()
	gpus := []int{1, 2, 4, 8, 16}
	speedups := []float64{1, 2, 4, 8, 16}
	sc, err := model.NewInterpolatedScaling(gpus, speedups)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Profile = sim.MeasuredTrainProfile{BaseMean: 40, Scaling: sc}
	return cfg
}

// TestReplanDecisionAllocs pins the allocations of each decision
// outcome — infeasible, kept and adopted, and the quiet trigger the
// deleted drift pre-screen used to screen, now a kept decision of its
// own search — on a controller
// that already took the same decision, reset and initialised again
// before each one.
func TestReplanDecisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	quiet := optimalState(t)
	quiet.Plan = quiet.Plan.Clone()
	for _, tc := range []struct {
		name  string
		pin   uint64
		setup func(d *oracleDriver) (State, Reason)
		want  func(Decision) bool
	}{
		{"screened", screenedAllocs, func(d *oracleDriver) (State, Reason) {
			d.observe(4, 1, 0, 4)
			return quiet, ReasonDrift
		}, func(dec Decision) bool { return !dec.Infeasible && !dec.Adopted }},
		{"infeasible", infeasibleAllocs, func(d *oracleDriver) (State, Reason) {
			d.observe(4, 1.5, 0, 4)
			return State{Stage: 0, Now: 1990, RemainingIters: 4, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift
		}, func(dec Decision) bool { return dec.Infeasible }},
		{"kept", keptAllocs, func(d *oracleDriver) (State, Reason) {
			d.observe(4, 2, 0, 5)
			return State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(4, 4, 4)}, ReasonDrift
		}, func(dec Decision) bool { return !dec.Infeasible && !dec.Adopted }},
		{"adopted", adoptedAllocs, func(d *oracleDriver) (State, Reason) {
			d.c.ObserveProvision(60)
			d.observe(4, 1.3, 0, 4)
			return State{Stage: 0, Now: 30, RemainingIters: 3, Plan: sim.NewPlan(16, 8, 4)}, ReasonDrift
		}, func(dec Decision) bool { return dec.Adopted }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exactAllocs(t)
			c, cfg := new(Controller), allocConfig(t)
			decide := func() (Decision, uint64) {
				if err := c.Init(cfg); err != nil {
					t.Fatal(err)
				}
				st, reason := tc.setup(&oracleDriver{t: t, c: c})
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				dec, err := c.Replan(st, reason)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return dec, after.Mallocs - before.Mallocs
			}
			for i := 0; i < 3; i++ {
				decide() // warm the controller and the package pools
			}
			const reps = 8
			var total uint64
			for i := 0; i < reps; i++ {
				dec, n := decide()
				if !tc.want(dec) {
					t.Fatalf("the decision is not %s: %+v", tc.name, dec)
				}
				total += n
			}
			allocs := total / reps
			t.Logf("%s decision: %d allocations (pin %d)", tc.name, allocs, tc.pin)
			if allocs > tc.pin {
				t.Fatalf("a warm %s decision allocates %d times, pin %d", tc.name, allocs, tc.pin)
			}
		})
	}
}

// TestDecisionsIsADeepCopy: Decisions shares no storage with the
// controller — editing the copy changes nothing the controller returns
// next — and an unadopted decision's copied NewPlan is its copied
// OldPlan, as in the controller.
func TestDecisionsIsADeepCopy(t *testing.T) {
	c := new(Controller)
	runScript(t, c, testConfig(t), oracleScripts["preemption"])
	got := c.Decisions()
	want := slices.Clone(got)
	for i := range want {
		want[i].OldPlan, want[i].NewPlan = want[i].OldPlan.Clone(), want[i].NewPlan.Clone()
	}
	if !got[0].Adopted || got[1].Adopted {
		t.Fatalf("want an adopted and then a kept decision: %+v", got)
	}
	if &got[1].NewPlan.Alloc[0] != &got[1].OldPlan.Alloc[0] {
		t.Error("the copy of an unadopted decision does not share its plan")
	}
	for _, d := range got {
		for i := range d.OldPlan.Alloc {
			d.OldPlan.Alloc[i], d.NewPlan.Alloc[i] = -1, -1
		}
	}
	if !reflect.DeepEqual(c.Decisions(), want) {
		t.Error("editing a Decisions copy changed the controller's decisions")
	}
}
