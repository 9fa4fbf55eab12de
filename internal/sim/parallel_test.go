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

// stochasticSim returns a simulator whose latency distributions are
// genuinely random, so determinism tests exercise the RNG stream plumbing
// rather than degenerate constants.
func stochasticSim(t testing.TB, samples, workers int, seed uint64) *Simulator {
	t.Helper()
	s := spec.MustSHA(16, 2, 16, 2)
	prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	sm, err := New(s, prof, cp, samples, stats.NewRNG(seed), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return sm
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

// TestEstimateDeterministicAcrossWorkers is the core invariant of the
// Monte-Carlo fan-out: for a fixed seed, the sampled estimate is
// bit-identical at every worker count and across repeated calls.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	ref := stochasticSim(t, 40, 1, 42)
	for _, plan := range testPlans(ref) {
		want, err := ref.EstimateMC(plan)
		if err != nil {
			t.Fatal(err)
		}
		if want.JCTStd == 0 {
			t.Fatalf("plan %v: degenerate deterministic estimate, test is vacuous", plan)
		}
		for _, workers := range []int{1, 2, 8} {
			sm := stochasticSim(t, 40, workers, 42)
			for run := 0; run < 2; run++ {
				got, err := sm.EstimateMC(plan)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("plan %v workers=%d run=%d: %+v != serial %+v", plan, workers, run, got, want)
				}
			}
		}
	}
}

// TestEstimateIndependentOfCallOrder: Monte-Carlo estimates are pure
// functions of the plan — evaluating other plans first must not shift any stream. (The
// pre-parallel simulator violated this: a single shared RNG made every
// estimate depend on the full call history.)
func TestEstimateIndependentOfCallOrder(t *testing.T) {
	a := stochasticSim(t, 30, 2, 7)
	b := stochasticSim(t, 30, 2, 7)
	plans := testPlans(a)

	want := make([]Estimate, len(plans))
	for i, p := range plans {
		est, err := a.EstimateMC(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	// Reverse order on the twin simulator.
	for i := len(plans) - 1; i >= 0; i-- {
		got, err := b.EstimateMC(plans[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("plan %v: reversed-order estimate %+v != %+v", plans[i], got, want[i])
		}
	}
}

// TestConcurrentEstimateRace hammers one cold shared Simulator from many
// goroutines (run under -race) with estimates and StaticClusterJCTs
// columns, so the segment table's first-write-wins fills, share column
// included, race each other, and checks every result against a serial
// reference computed on a twin simulator with the same seed.
func TestConcurrentEstimateRace(t *testing.T) {
	for _, est := range estimators {
		ref := stochasticSim(t, 20, 4, 99)
		plans := testPlans(ref)
		want := make([]Estimate, len(plans))
		for i, p := range plans {
			e, err := est.estimate(ref, p)
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

		sm := stochasticSim(t, 20, 4, 99)
		const goroutines = 8
		const rounds = 10
		errc := make(chan error, goroutines)
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					i := (g + r) % len(plans)
					got, err := est.estimate(sm, plans[i])
					if err != nil {
						errc <- err
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
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
}

// TestBreakdownDeterministicAndConsistent: the Monte-Carlo Breakdown is
// repeatable and its stage durations reproduce the Monte-Carlo estimate's
// mean JCT, because both average the same per-plan sample streams; the
// analytic Breakdown, which Breakdown returns when every moment is
// finite, is repeatable and its durations add up to Estimate's JCT.
func TestBreakdownDeterministicAndConsistent(t *testing.T) {
	sm := stochasticSim(t, 25, 4, 5)
	plan := testPlans(sm)[1]
	for _, c := range []struct {
		name      string
		breakdown func(Plan) ([]StageEstimate, error)
		estimate  func(Plan) (Estimate, error)
	}{
		{"BreakdownMC", sm.BreakdownMC, sm.EstimateMC},
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
// tools/repro/run.sh: large sample counts, high worker counts, many
// repetitions, all bit-identical.
//
//rbvet:impure(the env var only gates whether the heavy check runs at all; it never reaches a simulated value)
func TestEstimateHeavyRepeatability(t *testing.T) {
	if os.Getenv("RB_RUN_REPEATABILITY") == "" {
		t.Skip("set RB_RUN_REPEATABILITY=1 to run the heavy repeatability check")
	}
	ref := stochasticSim(t, 500, 1, 1234)
	plans := testPlans(ref)
	for _, plan := range plans {
		want, err := ref.EstimateMC(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8, 16} {
			sm := stochasticSim(t, 500, workers, 1234)
			for rep := 0; rep < 5; rep++ {
				got, err := sm.EstimateMC(plan)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("plan %v workers=%d rep=%d: %+v != %+v", plan, workers, rep, got, want)
				}
			}
		}
	}
}
