package repro

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/trial"
	"repro/internal/vclock"
)

// integrationScenario is a mid-size job touching every subsystem.
func integrationScenario(policy planner.Policy, seed uint64) harness.Scenario {
	cp := cloud.PaperProfile(model.CIFAR10.SizeGB)
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return harness.Scenario{
		BatchSeed: seed,
		Spec:      spec.MustSHA(16, 1, 20, 2),
		Model:     model.ResNet101(),
		Space:     searchspace.DefaultVisionSpace(),
		Profile:   cp,
		MaxGPUs:   64,
		Deadline:  20 * 60,
		Policy:    policy,
	}
}

// runPlanned runs sc and fails the test unless the planner found a plan.
func runPlanned(t *testing.T, sc harness.Scenario) *harness.Artifacts {
	t.Helper()
	a, err := harness.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Planned {
		t.Fatalf("%v: no plan meets the deadline", sc.Policy)
	}
	return a
}

// TestIntegrationFullPipeline drives profile→plan→execute across the
// whole stack and cross-checks invariants that only hold when every
// subsystem cooperates.
func TestIntegrationFullPipeline(t *testing.T) {
	e := integrationScenario(planner.PolicyRubberBand, 77)
	e.UseProfiler = true
	a := runPlanned(t, e)
	res, rec := a.Result, a.Recorder
	if a.ProfilingDuration <= 0 {
		t.Error("no profiling time recorded")
	}
	if v := harness.CheckAll(a, harness.DefaultOracles()); len(v) > 0 {
		t.Errorf("oracles: %v", v)
	}

	// 1. The plan respects the deadline in prediction and execution.
	if a.Estimate.JCT > e.Deadline {
		t.Errorf("predicted JCT %v over deadline", a.Estimate.JCT)
	}
	if res.JCT > e.Deadline*1.1 {
		t.Errorf("realized JCT %v blew the deadline by >10%%", res.JCT)
	}

	// 2. Prediction and execution agree.
	if d := math.Abs(res.JCT-a.Estimate.JCT) / a.Estimate.JCT; d > 0.2 {
		t.Errorf("sim/real JCT divergence %.0f%%", d*100)
	}
	if d := math.Abs(res.Cost-a.Estimate.Cost) / a.Estimate.Cost; d > 0.25 {
		t.Errorf("sim/real cost divergence %.0f%%", d*100)
	}

	// 3. Per-stage realized costs sum to (almost) the total: the gap is
	// the final stage's teardown-to-total residue, which is zero because
	// the last barrier coincides with job completion.
	var stageCost float64
	for _, row := range res.Schedule {
		stageCost += row.Cost
	}
	if math.Abs(stageCost-res.Cost) > 0.01*res.Cost+1e-6 {
		t.Errorf("stage costs %v != total %v", stageCost, res.Cost)
	}

	// 4. The event trace reconstructs the schedule.
	stages := trace.StageBreakdown(rec.Events())
	if len(stages) != e.Spec.NumStages() {
		t.Fatalf("trace has %d stages, want %d", len(stages), e.Spec.NumStages())
	}
	for i, s := range stages {
		row := res.Schedule[i]
		if math.Abs(s.Duration()-float64(row.End-row.Start)) > 1e-9 {
			t.Errorf("stage %d: trace duration %v != schedule %v", i, s.Duration(), row.End-row.Start)
		}
	}
	// Total kills = trials - 1 (single survivor).
	kills := 0
	for _, s := range stages {
		kills += s.Kills
	}
	if kills != e.Spec.TotalTrials()-1 {
		t.Errorf("kills = %d, want %d", kills, e.Spec.TotalTrials()-1)
	}

	// 5. Gantt spans cover every trial without overlap per trial.
	spans := trace.TrialSpans(rec.Events())
	seen := make(map[int]bool)
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("negative span %+v", s)
		}
		seen[s.Trial] = true
	}
	if len(seen) != e.Spec.TotalTrials() {
		t.Errorf("spans cover %d trials, want %d", len(seen), e.Spec.TotalTrials())
	}
}

// TestIntegrationPolicyOrdering checks the headline cost ordering across
// all three policies, realized end-to-end, at a tight deadline.
func TestIntegrationPolicyOrdering(t *testing.T) {
	costs := make(map[planner.Policy]float64)
	for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyNaiveElastic, planner.PolicyRubberBand} {
		e := integrationScenario(policy, 78)
		e.Deadline = 8 * 60
		costs[policy] = runPlanned(t, e).Result.Cost
	}
	if costs[planner.PolicyRubberBand] > costs[planner.PolicyStatic]*1.02 {
		t.Errorf("RubberBand %v above static %v", costs[planner.PolicyRubberBand], costs[planner.PolicyStatic])
	}
	if costs[planner.PolicyRubberBand] > costs[planner.PolicyNaiveElastic]*1.02 {
		t.Errorf("RubberBand %v above naive %v", costs[planner.PolicyRubberBand], costs[planner.PolicyNaiveElastic])
	}
}

// TestIntegrationPreemptionUnderRealWorkload runs the full pipeline on
// spot capacity with aggressive preemption and verifies the tournament's
// integrity end to end.
func TestIntegrationPreemptionUnderRealWorkload(t *testing.T) {
	e := integrationScenario(planner.PolicyRubberBand, 80)
	e.Profile.Pricing.Market = cloud.Spot
	e.Profile.Faults = cloud.FaultModel{PreemptionMeanSeconds: 300}
	res := runPlanned(t, e).Result
	if res.Preemptions == 0 {
		t.Skip("no preemption materialized at this seed")
	}
	completed := 0
	for _, tr := range res.Trials {
		if tr.State() == trial.Completed {
			completed++
			if tr.CumIters() != e.Spec.MaxIters() {
				t.Errorf("winner trained %d iters, want %d", tr.CumIters(), e.Spec.MaxIters())
			}
		}
	}
	if completed != 1 {
		t.Errorf("completed = %d", completed)
	}
}

// TestIntegrationExecutorDirect drives the executor with manually wired
// substrate (the way power users bypass the harness) and checks usage
// metering consistency between trace and provider.
func TestIntegrationExecutorDirect(t *testing.T) {
	clock := vclock.New()
	rng := stats.NewRNG(81)
	pricing := cloud.Pricing{Billing: cloud.PerFunction}
	ov := cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 1},
		InitLatency: stats.Deterministic{Value: 1},
	}
	it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	provider, err := cloud.NewProvider(clock, rng.Split(), cloud.Profile{Instance: it, Pricing: pricing, Overheads: ov})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := cluster.NewManager(provider, it, clock)
	if err != nil {
		t.Fatal(err)
	}
	m := model.ResNet101()
	m.IterNoiseStd = 0
	s := spec.MustSHA(8, 1, 8, 2)
	rec := trace.New()
	res, err := executor.Run(executor.Config{
		Spec:     s,
		Plan:     sim.Uniform(8, s.NumStages()),
		Model:    m,
		Batch:    m.BaseBatch,
		Configs:  searchspace.DefaultVisionSpace().SampleN(rng, 8),
		Provider: provider,
		Cluster:  mgr,
		Clock:    clock,
		RNG:      rng,
		Trace:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under per-function billing, cost = busy GPU-seconds × rate; the
	// trace's busy accounting must therefore price out to the bill.
	want := rec.BusyGPUSeconds() * it.PricePerGPUSecond(cloud.OnDemand)
	if math.Abs(res.Cost-want) > 1e-6 {
		t.Errorf("per-function bill %v != metered %v", res.Cost, want)
	}
}
