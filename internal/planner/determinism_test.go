package planner

import (
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// TestPlanDeterministicAcrossWorkers: each policy's Result — plan and
// bitwise estimate — is identical across fresh Planners and Simulators
// and whatever the deprecated worker knobs say: Planner.Workers and
// sim.WithWorkers change nothing while bench/ still sets them.
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	s := spec.MustSHA(16, 2, 16, 2)
	prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	build := func(workers int) *Planner {
		sm, err := sim.New(s, prof, cp, 0, nil, sim.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return &Planner{Sim: sm, Deadline: 1200, MaxGPUs: 32, Workers: workers}
	}
	for _, policy := range []Policy{PolicyStatic, PolicyNaiveElastic, PolicyRubberBand} {
		want, err := build(1).Plan(policy)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for _, workers := range []int{1, 2, 8} {
			for run := 0; run < 2; run++ {
				got, err := build(workers).Plan(policy)
				if err != nil {
					t.Fatalf("%v workers=%d: %v", policy, workers, err)
				}
				if !got.Plan.Equal(want.Plan) || got.Estimate != want.Estimate {
					t.Fatalf("%v workers=%d run=%d: %+v != %+v", policy, workers, run, got, want)
				}
			}
		}
	}
}

// TestPlanElasticDeterministicPerEstimator re-runs the elastic policy's
// determinism check under a light-tailed queue delay and under a
// heavy-tailed one (Pareto α = 2.5, finite variance): on each, the
// chosen plan and bitwise estimate must not vary across fresh Planners
// and Simulators or with repetition.
func TestPlanElasticDeterministicPerEstimator(t *testing.T) {
	build := func(queue stats.Dist) *Planner {
		s := spec.MustSHA(16, 2, 16, 2)
		prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
		cp := sim.DefaultCloudProfile()
		cp.Overheads = cloud.Overheads{
			QueueDelay:  queue,
			InitLatency: stats.Normal{Mu: 15, Sigma: 3},
		}
		sm, err := sim.New(s, prof, cp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &Planner{Sim: sm, Deadline: 1200, MaxGPUs: 32}
	}
	for _, queue := range []stats.Dist{stats.Exponential{MeanValue: 5}, stats.Pareto{Scale: 2, Alpha: 2.5}} {
		want, err := build(queue).PlanElastic()
		if err != nil {
			t.Fatalf("%v: %v", queue, err)
		}
		for fresh := 0; fresh < 2; fresh++ {
			p := build(queue)
			for run := 0; run < 2; run++ {
				got, err := p.PlanElastic()
				if err != nil {
					t.Fatalf("%v: %v", queue, err)
				}
				if !got.Plan.Equal(want.Plan) || got.Estimate != want.Estimate {
					t.Fatalf("%v planner %d run %d: %+v != first %+v", queue, fresh, run, got, want)
				}
			}
		}
	}
}

// countingProfile counts IterDist calls; the simulator consults the
// profile on every (non-memoized) Estimate, so a flat count across
// repeated evaluations proves the memo cache short-circuits simulation.
type countingProfile struct {
	inner sim.TrainProfile
	calls int64
}

func (c *countingProfile) IterDist(g int) stats.Dist {
	atomic.AddInt64(&c.calls, 1)
	return c.inner.IterDist(g)
}

func TestMemoCacheAvoidsResimulation(t *testing.T) {
	prof := &countingProfile{inner: sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}}
	s := spec.MustSHA(16, 2, 16, 2)
	sm, err := sim.New(s, prof, sim.DefaultCloudProfile(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Sim: sm, Deadline: 1200, MaxGPUs: 32}
	plan := sim.Uniform(16, s.NumStages())

	first, err := p.estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	after := atomic.LoadInt64(&prof.calls)
	if after == 0 {
		t.Fatal("estimate did not consult the profile; counting is broken")
	}
	second, err := p.estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&prof.calls); got != after {
		t.Fatalf("second estimate re-simulated: %d profile calls, want %d", got, after)
	}
	if first != second {
		t.Fatalf("memoized estimate %+v != original %+v", second, first)
	}
}
