package harness

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// paperScenario is the §6.3.1 workload at a reduced scale that keeps
// unit tests fast: ResNet-101/CIFAR-10, SHA(8, 1, 12, 3), 15-second
// provisioning, an absolute deadline of deadline seconds and the
// planner's default GPU cap.
func paperScenario(policy planner.Policy, deadline float64, seed uint64) Scenario {
	m := model.ResNet101()
	cp := sim.DefaultCloudProfile()
	cp.Pricing.MinChargeSeconds = 0
	cp.DatasetGB = m.Dataset.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return Scenario{
		BatchSeed: seed,
		Spec:      spec.MustSHA(8, 1, 12, 3),
		Model:     m,
		Space:     searchspace.DefaultVisionSpace(),
		Profile:   cp,
		Deadline:  deadline,
		Policy:    policy,
	}
}

// runPaper runs sc, requiring a planned run that passes every oracle.
func runPaper(t *testing.T, sc Scenario) *Artifacts {
	t.Helper()
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Planned {
		t.Fatalf("%v: no plan meets deadline %v", sc.Policy, sc.Deadline)
	}
	for _, v := range CheckAll(a, DefaultOracles()) {
		t.Errorf("%v: %s", sc.Policy, v)
	}
	return a
}

// TestPlanPerPolicy: PlanScenario runs the policy's search under the
// absolute deadline and cap, and Run executes the plan it returns.
func TestPlanPerPolicy(t *testing.T) {
	for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyNaiveElastic, planner.PolicyRubberBand} {
		sc := paperScenario(policy, 30*60, 2)
		res, err := PlanScenario(sc)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if err := res.Plan.Validate(sc.Spec.NumStages()); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res.Estimate.JCT > sc.Deadline {
			t.Errorf("%v plan violates deadline", policy)
		}
		if policy == planner.PolicyStatic && !res.Plan.IsStatic() {
			t.Errorf("static policy produced %v", res.Plan)
		}
		a := runPaper(t, sc)
		if !a.Plan.Equal(res.Plan) || a.Estimate != res.Estimate || a.Deadline != sc.Deadline {
			t.Errorf("%v: Run planned %v (%+v, deadline %v), PlanScenario %v (%+v)",
				policy, a.Plan, a.Estimate, a.Deadline, res.Plan, res.Estimate)
		}
		if want := planner.DefaultMaxGPUs(sc.Spec); a.Scenario.MaxGPUs != want {
			t.Errorf("%v: cap %d, want the planner's default %d", policy, a.Scenario.MaxGPUs, want)
		}
	}
	if _, err := PlanScenario(paperScenario(planner.Policy(42), 30*60, 2)); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := PlanScenario(paperScenario(planner.PolicyRubberBand, 60, 2)); !errors.Is(err, planner.ErrInfeasible) {
		t.Errorf("one-minute deadline: err = %v, want ErrInfeasible", err)
	}
}

// TestRunEndToEnd executes a RubberBand plan and checks the outcome.
func TestRunEndToEnd(t *testing.T) {
	a := runPaper(t, paperScenario(planner.PolicyRubberBand, 30*60, 3))
	if a.Result.JCT <= 0 || a.Result.Cost <= 0 {
		t.Fatalf("result = %+v", a.Result)
	}
	if a.Result.BestAccuracy < 0.3 {
		t.Errorf("suspiciously low winner accuracy %v", a.Result.BestAccuracy)
	}
}

// TestTraceWiring: every run records into its trace, one stage start
// per stage of the spec.
func TestTraceWiring(t *testing.T) {
	sc := paperScenario(planner.PolicyStatic, 30*60, 9)
	a := runPaper(t, sc)
	if got := a.Recorder.Count(trace.KindStageStart); got != sc.Spec.NumStages() {
		t.Errorf("stage starts = %d, want %d", got, sc.Spec.NumStages())
	}
}

// TestSimulationFidelity is the Table 2 "error rate is low" claim: the
// executor's realized JCT and cost must track the simulator's prediction.
func TestSimulationFidelity(t *testing.T) {
	a := runPaper(t, paperScenario(planner.PolicyRubberBand, 30*60, 4))
	jctErr := math.Abs(a.Result.JCT-a.Estimate.JCT) / a.Estimate.JCT
	costErr := math.Abs(a.Result.Cost-a.Estimate.Cost) / a.Estimate.Cost
	if jctErr > 0.15 {
		t.Errorf("JCT error %.1f%% (sim %v vs real %v)", jctErr*100, a.Estimate.JCT, a.Result.JCT)
	}
	if costErr > 0.20 {
		t.Errorf("cost error %.1f%% (sim %v vs real %v)", costErr*100, a.Estimate.Cost, a.Result.Cost)
	}
}

func TestRubberBandNoWorseThanStaticRealized(t *testing.T) {
	for _, deadline := range []float64{6 * 60, 12 * 60} {
		static := runPaper(t, paperScenario(planner.PolicyStatic, deadline, 5))
		rb := runPaper(t, paperScenario(planner.PolicyRubberBand, deadline, 5))
		// Allow a small tolerance for execution noise around equal-cost
		// plans.
		if rb.Result.Cost > static.Result.Cost*1.05 {
			t.Errorf("deadline %v: RubberBand $%.2f worse than static $%.2f (plans %v vs %v)",
				deadline, rb.Result.Cost, static.Result.Cost, rb.Plan, static.Plan)
		}
	}
}

// TestUseProfilerPath: with UseProfiler the plan comes from a measured
// profile, drawn from a stream of its own, and the profiling time is
// reported; the runtime streams do not move.
func TestUseProfilerPath(t *testing.T) {
	sc := paperScenario(planner.PolicyRubberBand, 30*60, 6)
	sc.UseProfiler = true
	a := runPaper(t, sc)
	if a.ProfilingDuration <= 0 {
		t.Error("no profiling time recorded")
	}
	again := runPaper(t, sc)
	if ComputeDigest(a) != ComputeDigest(again) || a.ProfilingDuration != again.ProfilingDuration {
		t.Error("profiled runs of one scenario differ")
	}
	res, err := PlanScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Equal(a.Plan) || res.Estimate != a.Estimate {
		t.Errorf("PlanScenario planned %v (%+v), Run %v (%+v)", res.Plan, res.Estimate, a.Plan, a.Estimate)
	}
	sc.UseProfiler = false
	if analytic := runPaper(t, sc); analytic.Estimate == a.Estimate {
		t.Error("the measured profile predicted exactly what the analytic one did")
	}
}

// TestExplicitPlanSkipsPlanner: a scenario carrying its own plan executes
// it unplanned, under the scenario's deadline.
func TestExplicitPlanSkipsPlanner(t *testing.T) {
	sc := paperScenario(planner.PolicyRubberBand, 30*60, 9)
	sc.Plan = sim.NewPlan(16, 4, 2)
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Planned || !a.Plan.Equal(sc.Plan) || a.Deadline != sc.Deadline {
		t.Fatalf("planned=%v plan %v deadline %v, want the scenario's plan %v unplanned under %v",
			a.Planned, a.Plan, a.Deadline, sc.Plan, sc.Deadline)
	}
	for _, v := range CheckAll(a, DefaultOracles()) {
		t.Error(v)
	}
	if a.Result.Schedule[0].GPUsPerTrial != 2 {
		t.Errorf("stage 0 ran %d GPUs/trial, the plan gives 2", a.Result.Schedule[0].GPUsPerTrial)
	}
}

// TestPaperSeedsDiffer: paper scenarios replay bit-identically from their
// seed, and another seed gives another run.
func TestPaperSeedsDiffer(t *testing.T) {
	a := runPaper(t, paperScenario(planner.PolicyRubberBand, 30*60, 7))
	b := runPaper(t, paperScenario(planner.PolicyRubberBand, 30*60, 7))
	if ComputeDigest(a) != ComputeDigest(b) {
		t.Fatal("identical seeds produced different runs")
	}
	c := runPaper(t, paperScenario(planner.PolicyRubberBand, 30*60, 8))
	if a.Result.JCT == c.Result.JCT && a.Result.Cost == c.Result.Cost {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}
