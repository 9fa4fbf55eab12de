package repro

import (
	"math"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/trial"
	"repro/internal/vclock"
)

// integrationExperiment is a mid-size job touching every subsystem.
func integrationExperiment(policy core.Policy, seed uint64) *core.Experiment {
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = model.CIFAR10.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return &core.Experiment{
		Model:          model.ResNet101(),
		Space:          searchspace.DefaultVisionSpace(),
		Spec:           spec.MustSHA(16, 1, 20, 2),
		Cloud:          cp,
		Deadline:       20 * time.Minute,
		Policy:         policy,
		Seed:           seed,
		Samples:        10,
		MaxGPUs:        64,
		RestoreSeconds: 2,
	}
}

// TestIntegrationFullPipeline drives profile→plan→execute across the
// whole stack and cross-checks invariants that only hold when every
// subsystem cooperates.
func TestIntegrationFullPipeline(t *testing.T) {
	e := integrationExperiment(core.PolicyRubberBand, 77)
	e.UseProfiler = true
	rec := trace.New()
	e.Trace = rec

	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	// 1. The plan respects the deadline in prediction and execution.
	if res.Predicted.JCT > e.Deadline.Seconds() {
		t.Errorf("predicted JCT %v over deadline", res.Predicted.JCT)
	}
	if res.Actual.JCT > e.Deadline.Seconds()*1.1 {
		t.Errorf("realized JCT %v blew the deadline by >10%%", res.Actual.JCT)
	}

	// 2. Prediction and execution agree.
	if d := math.Abs(res.Actual.JCT-res.Predicted.JCT) / res.Predicted.JCT; d > 0.2 {
		t.Errorf("sim/real JCT divergence %.0f%%", d*100)
	}
	if d := math.Abs(res.Actual.Cost-res.Predicted.Cost) / res.Predicted.Cost; d > 0.25 {
		t.Errorf("sim/real cost divergence %.0f%%", d*100)
	}

	// 3. Per-stage realized costs sum to (almost) the total: the gap is
	// the final stage's teardown-to-total residue, which is zero because
	// the last barrier coincides with job completion.
	var stageCost float64
	for _, row := range res.Actual.Schedule {
		stageCost += row.Cost
	}
	if math.Abs(stageCost-res.Actual.Cost) > 0.01*res.Actual.Cost+1e-6 {
		t.Errorf("stage costs %v != total %v", stageCost, res.Actual.Cost)
	}

	// 4. The event trace reconstructs the schedule.
	stages := trace.StageBreakdown(rec.Events())
	if len(stages) != e.Spec.NumStages() {
		t.Fatalf("trace has %d stages, want %d", len(stages), e.Spec.NumStages())
	}
	for i, s := range stages {
		row := res.Actual.Schedule[i]
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
	costs := make(map[core.Policy]float64)
	for _, policy := range []core.Policy{core.PolicyStatic, core.PolicyNaiveElastic, core.PolicyRubberBand} {
		e := integrationExperiment(policy, 78)
		e.Deadline = 8 * time.Minute
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		costs[policy] = res.Actual.Cost
	}
	if costs[core.PolicyRubberBand] > costs[core.PolicyStatic]*1.02 {
		t.Errorf("RubberBand %v above static %v", costs[core.PolicyRubberBand], costs[core.PolicyStatic])
	}
	if costs[core.PolicyRubberBand] > costs[core.PolicyNaiveElastic]*1.02 {
		t.Errorf("RubberBand %v above naive %v", costs[core.PolicyRubberBand], costs[core.PolicyNaiveElastic])
	}
}

// TestIntegrationPreemptionUnderRealWorkload runs the full facade on spot
// capacity with aggressive preemption and verifies the tournament's
// integrity end to end.
func TestIntegrationPreemptionUnderRealWorkload(t *testing.T) {
	e := integrationExperiment(core.PolicyRubberBand, 80)
	e.Cloud.Pricing.Market = cloud.Spot
	e.Faults = cloud.FaultModel{PreemptionMeanSeconds: 300}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Actual.Preemptions == 0 {
		t.Skip("no preemption materialized at this seed")
	}
	completed := 0
	for _, tr := range res.Actual.Trials {
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
// substrate (the way power users bypass the facade) and checks usage
// metering consistency between trace and provider.
func TestIntegrationExecutorDirect(t *testing.T) {
	clock := vclock.New()
	rng := stats.NewRNG(81)
	pricing := cloud.Pricing{Billing: cloud.PerFunction}
	ov := cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 1},
		InitLatency: stats.Deterministic{Value: 1},
	}
	provider, err := cloud.NewProvider(clock, rng.Split(), pricing, ov, 0)
	if err != nil {
		t.Fatal(err)
	}
	it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
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
