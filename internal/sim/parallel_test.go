package sim

import (
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

// stochasticJob is a job whose latency distributions are genuinely
// random, so estimates exercise the moment propagation's joins and the
// oracle's stream plumbing rather than degenerate constants.
func stochasticJob() (*spec.ExperimentSpec, TrainProfile, cloud.Profile) {
	s := spec.MustSHA(16, 2, 16, 2)
	prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := cloud.PaperProfile(0)
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	return s, prof, cp
}

// stochasticSim returns a simulator of stochasticJob.
func stochasticSim(t testing.TB, opts ...Option) *Simulator {
	t.Helper()
	s, prof, cp := stochasticJob()
	sm, err := New(s, prof, cp, 0, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// stochasticMC returns the Monte-Carlo oracle over a new stochasticSim,
// samples draws per segment from seed's streams.
func stochasticMC(t testing.TB, samples int, seed uint64) *monteCarlo {
	t.Helper()
	return newMonteCarlo(stochasticSim(t), samples, stats.NewRNG(seed))
}

// testPlans covers the three plan shapes the planner emits: static,
// shrinking elastic, and sub-trial allocations with queued waves.
func testPlans(sm *Simulator) []Plan {
	stages := sm.Spec().NumStages()
	elastic := make([]int, stages)
	for i := 0; i < stages; i++ {
		a := sm.Spec().Stage(i).Trials
		if a > 16 {
			a = 16
		}
		elastic[i] = a
	}
	return []Plan{
		Uniform(16, stages),
		{Alloc: elastic},
		Uniform(3, stages),
	}
}

// TestEstimateDeterministicAcrossWorkers: the Monte-Carlo oracle is
// bit-identical across repeated calls on fresh oracles and whatever
// worker bound the deprecated WithWorkers names on the Simulator it
// samples: the option changes nothing while bench/ still passes it.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	ref := stochasticMC(t, 40, 42)
	for _, plan := range testPlans(ref.s) {
		want, err := ref.estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		if want.JCTStd == 0 {
			t.Fatalf("plan %v: degenerate deterministic estimate, test is vacuous", plan)
		}
		for _, workers := range []int{1, 2, 8} {
			mc := newMonteCarlo(stochasticSim(t, WithWorkers(workers)), 40, stats.NewRNG(42))
			for run := 0; run < 2; run++ {
				got, err := mc.estimate(plan)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("plan %v workers=%d run=%d: %+v != %+v", plan, workers, run, got, want)
				}
			}
		}
	}
}

// TestEstimateIndependentOfCallOrder: the Monte-Carlo oracle's
// estimates are pure functions of the plan — evaluating other plans
// first must not shift any stream, and neither must the Simulator's
// analytic estimates in between.
func TestEstimateIndependentOfCallOrder(t *testing.T) {
	a := stochasticMC(t, 30, 7)
	b := stochasticMC(t, 30, 7)
	plans := testPlans(a.s)

	want := make([]Estimate, len(plans))
	for i, p := range plans {
		est, err := a.estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	// Reverse order on the twin oracle.
	for i := len(plans) - 1; i >= 0; i-- {
		if _, err := b.s.Estimate(plans[i]); err != nil {
			t.Fatal(err)
		}
		got, err := b.estimate(plans[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("plan %v: reversed-order estimate %+v != %+v", plans[i], got, want[i])
		}
	}
}

// TestConcurrentEstimateRace runs goroutines that each own a cold
// Simulator of the same job at once (run under -race), with estimates
// and StaticClusterJCTs columns, and checks every result against a
// serial reference: Simulators share no state, the scratch of their
// estimates included, so goroutines that each own one need no lock.
func TestConcurrentEstimateRace(t *testing.T) {
	for _, est := range estimators {
		ref := stochasticSim(t)
		plans := testPlans(ref)
		want := make([]Estimate, len(plans))
		estimate := est.on(ref, 20, 99)
		for i, p := range plans {
			e, err := estimate(p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = e
		}
		sizes := []int{6, 17, 32, 48, 64}
		wantJCTs := make([][]float64, len(sizes))
		for i, n := range sizes {
			wantJCTs[i] = ref.StaticClusterJCTs(n, nil)
		}

		const goroutines = 8
		const rounds = 10
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			sm := stochasticSim(t)
			estimate := est.on(sm, 20, 99)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					i := (g + r) % len(plans)
					got, err := estimate(plans[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("%s goroutine %d round %d plan %v: %+v != %+v", est.name, g, r, plans[i], got, want[i])
						return
					}
					j := (g + 2*r) % len(sizes)
					if got := sm.StaticClusterJCTs(sizes[j], nil); !slices.Equal(got, wantJCTs[j]) {
						t.Errorf("%s goroutine %d round %d: StaticClusterJCTs(%d) = %v, want %v", est.name, g, r, sizes[j], got, wantJCTs[j])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestBreakdownDeterministicAndConsistent: Breakdown is repeatable and
// its durations add up to Estimate's JCT; so are the Monte-Carlo
// oracle's, whose stage durations reproduce its estimate's mean JCT
// because both average the same per-plan sample streams.
func TestBreakdownDeterministicAndConsistent(t *testing.T) {
	mc := stochasticMC(t, 25, 5)
	sm := mc.s
	plan := testPlans(sm)[1]
	for _, c := range []struct {
		name      string
		breakdown func(Plan) ([]StageEstimate, error)
		estimate  func(Plan) (Estimate, error)
	}{
		{"Monte-Carlo", mc.breakdownOf, mc.estimate},
		{"Breakdown", sm.Breakdown, sm.Estimate},
	} {
		rows1, err := c.breakdown(plan)
		if err != nil {
			t.Fatal(err)
		}
		rows2, err := c.breakdown(plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows1 {
			if rows1[i] != rows2[i] {
				t.Fatalf("%s stage %d: %+v != %+v across calls", c.name, i, rows1[i], rows2[i])
			}
		}
		est, err := c.estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, r := range rows1 {
			total += r.Duration
		}
		// Stage spans partition each sampled makespan, and the analytic
		// JCT is the sum of the stages' mean spans, so the sums of their
		// means must agree up to float summation order.
		tol := 1e-6 * est.JCT
		if diff := total - est.JCT; diff > tol || diff < -tol {
			t.Fatalf("%s durations sum to %v, estimate JCT %v", c.name, total, est.JCT)
		}
	}
}

// TestEstimateHeavyRepeatability is the gated heavy check run by
// tools/repro/run.sh: the Monte-Carlo oracle at a large sample count,
// on fresh Simulators, over many repetitions, all bit-identical.
//
//rbvet:impure(the env var only gates whether the heavy check runs at all; it never reaches a simulated value)
func TestEstimateHeavyRepeatability(t *testing.T) {
	if os.Getenv("RB_RUN_REPEATABILITY") == "" {
		t.Skip("set RB_RUN_REPEATABILITY=1 to run the heavy repeatability check")
	}
	ref := stochasticMC(t, 500, 1234)
	plans := testPlans(ref.s)
	for _, plan := range plans {
		want, err := ref.estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		for fresh := 0; fresh < 4; fresh++ {
			mc := stochasticMC(t, 500, 1234)
			for rep := 0; rep < 5; rep++ {
				got, err := mc.estimate(plan)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("plan %v Simulator %d rep=%d: %+v != %+v", plan, fresh, rep, got, want)
				}
			}
		}
	}
}
