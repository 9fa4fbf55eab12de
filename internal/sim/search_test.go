package sim_test

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
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
func searchSim(t *testing.T, prof sim.TrainProfile, samples int, seed uint64) *sim.Simulator {
	t.Helper()
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	sm, err := sim.New(spec.MustSHA(16, 2, 16, 2), prof, cp, samples, stats.NewRNG(seed), sim.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestPlanElasticFillsNoSampleVector: when every latency has finite
// moments, a whole elastic search runs on analytic moments and fills no
// segment sample vector, and the estimate it reports is the analytic
// one: a Simulator with another seed and sample count reproduces it bit
// for bit.
func TestPlanElasticFillsNoSampleVector(t *testing.T) {
	prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	sm := searchSim(t, prof, 20, 3)
	p := &planner.Planner{Sim: sm, Deadline: 1200, MaxGPUs: 32, Workers: 1}
	res, err := p.PlanElastic()
	if err != nil {
		t.Fatal(err)
	}
	if p.EstimateCalls() < 16 {
		t.Fatalf("the search requested %d estimates; the test is vacuous", p.EstimateCalls())
	}
	if n := sim.SampleFills(sm); n != 0 {
		t.Fatalf("an elastic search over finite moments filled %d sample vectors, want 0", n)
	}
	other, err := searchSim(t, prof, 7, 99).Estimate(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if other != res.Estimate {
		t.Fatalf("plan %v: the search reports %+v, another seed and sample count estimate %+v", res.Plan, res.Estimate, other)
	}
}

// TestHeavyTailedProfilePlansThroughFallback: an iteration profile
// without a finite variance (Pareto alpha 1.8) still plans, every
// estimate through the Monte-Carlo fallback. PlanStatic picks exactly the
// plan a Monte-Carlo enumeration of the same sizes picks, with the same
// estimate bit for bit; PlanElastic reports the Monte-Carlo estimate of
// its plan, meets the deadline by it and costs no more than that static
// optimum.
func TestHeavyTailedProfilePlansThroughFallback(t *testing.T) {
	const maxGPUs = 32
	prof := paretoProfile{base: 4, alpha: 1.8}
	sm := searchSim(t, prof, 20, 5)
	deadline := 400.0
	ref := searchSim(t, prof, 20, 5)

	var want sim.Plan
	var wantEst sim.Estimate
	for g := 1; g <= maxGPUs; g++ {
		if ref.StaticClusterJCT(g) > deadline {
			continue // PlanStatic's closed-form bracket
		}
		plan := sim.Uniform(g, ref.Spec().NumStages())
		est, err := ref.EstimateMC(plan)
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

	p := &planner.Planner{Sim: sm, Deadline: deadline, MaxGPUs: maxGPUs, Workers: 1}
	static, err := p.PlanStatic()
	if err != nil {
		t.Fatal(err)
	}
	if !static.Plan.Equal(want) || static.Estimate != wantEst {
		t.Fatalf("PlanStatic chose %v %+v, the Monte-Carlo enumeration %v %+v", static.Plan, static.Estimate, want, wantEst)
	}
	elastic, err := p.PlanElastic()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ref.EstimateMC(elastic.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if elastic.Estimate != mc {
		t.Fatalf("PlanElastic reports %+v for %v, its Monte-Carlo estimate is %+v", elastic.Estimate, elastic.Plan, mc)
	}
	if elastic.Estimate.JCT > deadline || elastic.Estimate.Cost > wantEst.Cost {
		t.Fatalf("PlanElastic chose %v %+v against deadline %v and static optimum %+v", elastic.Plan, elastic.Estimate, deadline, wantEst)
	}
	if sim.SampleFills(sm) == 0 {
		t.Fatal("the search filled no sample vector; it did not take the fallback")
	}
}
