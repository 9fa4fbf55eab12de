package sim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/spec"
)

func TestBreakdownSumsToEstimate(t *testing.T) {
	// Per-stage durations must sum to the JCT prediction, and per-stage
	// costs to the compute portion of the cost prediction, for a
	// deterministic job (no Monte-Carlo disagreement between the calls).
	s := spec.Empty().AddStage(4, 10).AddStage(2, 20)
	cp := testCloud(cloud.PerInstance, 5, 15)
	sm := mustSim(t, s, constProfile{1}, cp, 3)
	plan := NewPlan(4, 4)

	rows, err := sm.Breakdown(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	est, err := sm.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	var dur, cost float64
	for _, r := range rows {
		dur += r.Duration
		cost += r.Cost
	}
	if math.Abs(dur-est.JCT) > 1e-9 {
		t.Errorf("stage durations sum %v != JCT %v", dur, est.JCT)
	}
	if math.Abs(cost-est.Cost) > 1e-9 {
		t.Errorf("stage costs sum %v != cost %v (no data/min-charge here)", cost, est.Cost)
	}
	// Stage 0 carries the provisioning latency: 5+15+10 = 30 s.
	if math.Abs(rows[0].Duration-30) > 1e-9 {
		t.Errorf("stage 0 duration %v, want 30", rows[0].Duration)
	}
	if rows[0].Trials != 4 || rows[0].GPUsPerTrial != 1 || rows[0].Instances != 1 {
		t.Errorf("stage 0 shape = %+v", rows[0])
	}
}

func TestBreakdownPerFunction(t *testing.T) {
	s := spec.Empty().AddStage(4, 10)
	cp := testCloud(cloud.PerFunction, 0, 0)
	sm := mustSim(t, s, constProfile{1}, cp, 2)
	rows, err := sm.Breakdown(NewPlan(4))
	if err != nil {
		t.Fatal(err)
	}
	// 4 trials x 10 iters x 1 s x 1 GPU = 40 GPU-seconds.
	want := 40 * cp.Instance.PricePerGPUSecond(cloud.OnDemand)
	if math.Abs(rows[0].Cost-want) > 1e-9 {
		t.Errorf("per-function stage cost %v, want %v", rows[0].Cost, want)
	}
}

func TestBreakdownRejectsBadPlan(t *testing.T) {
	s := spec.Empty().AddStage(4, 10)
	sm := mustSim(t, s, constProfile{1}, testCloud(cloud.PerInstance, 0, 0), 2)
	if _, err := sm.Breakdown(NewPlan(4, 4)); err == nil {
		t.Fatal("bad plan accepted")
	}
}
