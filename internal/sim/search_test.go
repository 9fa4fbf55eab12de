package sim_test

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// paretoProfile is a training profile whose iteration latency at g GPUs
// is Pareto with minimum base/g and tail index alpha: at alpha <= 2 it
// has a finite mean but no finite variance.
type paretoProfile struct{ base, alpha float64 }

func (p paretoProfile) IterDist(gpus int) stats.Dist {
	return stats.Pareto{Scale: p.base / float64(gpus), Alpha: p.alpha}
}

// searchSim returns a Simulator of a four-stage job under prof, with
// stochastic provisioning overheads.
func searchSim(t *testing.T, prof sim.TrainProfile) *sim.Simulator {
	t.Helper()
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	sm, err := sim.New(spec.MustSHA(16, 2, 16, 2), prof, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestHeavyTailedProfilePlansThroughFallback (named for the Monte-Carlo
// fallback such profiles used to plan through): an iteration profile
// without a finite variance (Pareto α = 1.8) has no moments to plan on,
// so Estimate, Breakdown, PlanStatic and PlanElastic each return an
// error naming the TRAIN latency rather than a plan. With a finite variance
// (α = 2.5) the same heavy-tailed profile plans analytically:
// PlanStatic picks exactly the plan an enumeration of Estimate over the
// same sizes picks, with the same estimate bit for bit; PlanElastic
// meets the deadline, costs no more than that static optimum and
// reports Estimate's estimate of its plan.
func TestHeavyTailedProfilePlansThroughFallback(t *testing.T) {
	const maxGPUs = 32
	deadline := 400.0
	heavy := searchSim(t, paretoProfile{base: 4, alpha: 1.8})
	stages := heavy.Spec().NumStages()
	if _, err := heavy.Estimate(sim.Uniform(8, stages)); err == nil || !strings.Contains(err.Error(), "TRAIN latency") {
		t.Fatalf("Estimate under a Pareto 1.8 profile: error %v, want one naming the TRAIN latency", err)
	}
	if _, err := heavy.Breakdown(sim.Uniform(8, stages)); err == nil {
		t.Fatal("Breakdown under a Pareto 1.8 profile succeeded")
	}
	hp := &planner.Planner{Sim: heavy, Deadline: deadline, MaxGPUs: maxGPUs}
	if res, err := hp.PlanStatic(); err == nil || err == planner.ErrInfeasible {
		t.Fatalf("PlanStatic under a Pareto 1.8 profile: %v %v, want an estimate error", res.Plan, err)
	}
	if res, err := hp.PlanElastic(); err == nil || err == planner.ErrInfeasible {
		t.Fatalf("PlanElastic under a Pareto 1.8 profile: %v %v, want an estimate error", res.Plan, err)
	}

	prof := paretoProfile{base: 4, alpha: 2.5}
	sm := searchSim(t, prof)
	ref := searchSim(t, prof)
	var want sim.Plan
	var wantEst sim.Estimate
	for g := 1; g <= maxGPUs; g++ {
		if ref.StaticClusterJCT(g) > deadline {
			continue // PlanStatic's closed-form bracket
		}
		plan := sim.Uniform(g, stages)
		est, err := ref.Estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		if est.JCT <= deadline && (want.Alloc == nil || est.Cost < wantEst.Cost) {
			want, wantEst = plan, est
		}
	}
	if want.Alloc == nil {
		t.Fatal("no static size meets the deadline; the test is vacuous")
	}
	p := &planner.Planner{Sim: sm, Deadline: deadline, MaxGPUs: maxGPUs}
	static, err := p.PlanStatic()
	if err != nil {
		t.Fatal(err)
	}
	if !static.Plan.Equal(want) || static.Estimate != wantEst {
		t.Fatalf("PlanStatic chose %v %+v, the enumeration %v %+v", static.Plan, static.Estimate, want, wantEst)
	}
	elastic, err := p.PlanElastic()
	if err != nil {
		t.Fatal(err)
	}
	if elastic.Estimate.JCT > deadline || elastic.Estimate.Cost > wantEst.Cost {
		t.Fatalf("PlanElastic chose %v %+v against deadline %v and static optimum %+v", elastic.Plan, elastic.Estimate, deadline, wantEst)
	}
	if est, err := ref.Estimate(elastic.Plan); err != nil || est != elastic.Estimate {
		t.Fatalf("PlanElastic reports %+v for %v, Estimate gives %+v (err %v)", elastic.Estimate, elastic.Plan, est, err)
	}
}
