package planner

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// stochasticPlanSim builds a simulator with genuinely random latencies so
// planner determinism reflects the RNG stream plumbing, not constants.
func stochasticPlanSim(t testing.TB, workers int) *sim.Simulator {
	t.Helper()
	s := spec.MustSHA(16, 2, 16, 2)
	prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	sm, err := sim.New(s, prof, cp, 10, stats.NewRNG(11), sim.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func detPlanner(t testing.TB, workers int) *Planner {
	return &Planner{
		Sim:      stochasticPlanSim(t, workers),
		Deadline: 1200,
		MaxGPUs:  32,
		Workers:  workers,
	}
}

// TestPlanDeterministicAcrossWorkers: each policy's Result — plan and
// bitwise estimate — is identical for workers 1, 2 and 8, and across two
// consecutive runs on fresh planners.
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	policies := []struct {
		name string
		run  func(p *Planner) (Result, error)
	}{
		{"static", (*Planner).PlanStatic},
		{"naive-elastic", (*Planner).PlanNaiveElastic},
		{"elastic", (*Planner).PlanElastic},
	}
	for _, pol := range policies {
		want, err := pol.run(detPlanner(t, 1))
		if err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			for run := 0; run < 2; run++ {
				got, err := pol.run(detPlanner(t, workers))
				if err != nil {
					t.Fatalf("%s workers=%d: %v", pol.name, workers, err)
				}
				if !got.Plan.Equal(want.Plan) {
					t.Fatalf("%s workers=%d run=%d: plan %v != serial %v", pol.name, workers, run, got.Plan, want.Plan)
				}
				if got.Estimate != want.Estimate {
					t.Fatalf("%s workers=%d run=%d: estimate %+v != serial %+v", pol.name, workers, run, got.Estimate, want.Estimate)
				}
			}
		}
	}
}

// TestPlanElasticDeterministicPerEstimator re-runs the elastic policy's
// determinism check on each path of the estimator: analytic moments, and
// the Monte-Carlo fallback a queue delay without a finite variance takes.
// On each, the chosen plan and bitwise estimate must not vary with worker
// count or repetition.
func TestPlanElasticDeterministicPerEstimator(t *testing.T) {
	build := func(workers int, queue stats.Dist) *Planner {
		s := spec.MustSHA(16, 2, 16, 2)
		prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
		cp := sim.DefaultCloudProfile()
		cp.Overheads = cloud.Overheads{
			QueueDelay:  queue,
			InitLatency: stats.Normal{Mu: 15, Sigma: 3},
		}
		sm, err := sim.New(s, prof, cp, 10, stats.NewRNG(11), sim.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return &Planner{Sim: sm, Deadline: 1200, MaxGPUs: 32, Workers: workers}
	}
	for _, queue := range []stats.Dist{stats.Exponential{MeanValue: 5}, stats.Pareto{Scale: 2, Alpha: 1.5}} {
		want, err := build(1, queue).PlanElastic()
		if err != nil {
			t.Fatalf("%v: %v", queue, err)
		}
		for _, workers := range []int{2, 8} {
			for run := 0; run < 2; run++ {
				got, err := build(workers, queue).PlanElastic()
				if err != nil {
					t.Fatalf("%v workers=%d: %v", queue, workers, err)
				}
				if !got.Plan.Equal(want.Plan) || got.Estimate != want.Estimate {
					t.Fatalf("%v workers=%d run=%d: %+v != serial %+v", queue, workers, run, got, want)
				}
			}
		}
	}
}

// TestConcurrentPlannersShareSimulator runs several planners against one
// shared simulator and cloud profile at once (run under -race); every
// result must match the serial reference.
func TestConcurrentPlannersShareSimulator(t *testing.T) {
	shared := stochasticPlanSim(t, 2)
	want, err := (&Planner{Sim: shared, Deadline: 1200, MaxGPUs: 32, Workers: 1}).PlanElastic()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			p := &Planner{Sim: shared, Deadline: 1200, MaxGPUs: 32, Workers: 1 + g%3}
			got, err := p.PlanElastic()
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if !got.Plan.Equal(want.Plan) || got.Estimate != want.Estimate {
				t.Errorf("goroutine %d: %+v != %+v", g, got, want)
			}
		}(g)
	}
	wg.Wait()
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
	sm, err := sim.New(s, prof, sim.DefaultCloudProfile(), 10, stats.NewRNG(1))
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

// TestMemoConcurrentAccess hammers the memo from many goroutines over a
// small plan set (race-detector target for the cache's locking).
func TestMemoConcurrentAccess(t *testing.T) {
	p := detPlanner(t, 2)
	stages := p.Sim.Spec().NumStages()
	plans := []sim.Plan{sim.Uniform(4, stages), sim.Uniform(8, stages), sim.Uniform(16, stages)}
	want := make([]sim.Estimate, len(plans))
	for i, pl := range plans {
		est, err := p.estimate(pl)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	var wg sync.WaitGroup
	const goroutines = 8
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(plans)
				got, err := p.estimate(plans[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("plan %v: %+v != %+v", plans[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
