package sim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

// analyticEstimate evaluates p on a fresh evaluator, failing the test on
// error or on an unexpected fallback.
func analyticEstimate(t *testing.T, sm *Simulator, p Plan) Estimate {
	t.Helper()
	e := sm.NewAnalyticEval()
	est, ok, err := e.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("plan %v: analytic estimator unexpectedly unsupported", p)
	}
	return est
}

// TestAnalyticAgreesExactlyUnderDeterministicLatencies: with point-mass
// latencies everywhere the moment pass is exact (every variance is zero),
// so the analytic estimate must match the Monte-Carlo one to float
// round-off, under both billing models and for all plan shapes.
func TestAnalyticAgreesExactlyUnderDeterministicLatencies(t *testing.T) {
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		sm := deterministicSim(t, 5, 2, billing)
		for _, plan := range testPlans(sm) {
			ae, err := sm.Estimate(plan)
			if err != nil {
				t.Fatal(err)
			}
			se, err := sm.EstimateMC(plan)
			if err != nil {
				t.Fatal(err)
			}
			if ae.JCTStd != 0 || ae.CostStd != 0 {
				t.Fatalf("billing %v plan %v: nonzero analytic spread %+v under deterministic latencies", billing, plan, ae)
			}
			if d := math.Abs(ae.JCT - se.JCT); d > 1e-9*se.JCT {
				t.Fatalf("billing %v plan %v: analytic JCT %v != segment %v", billing, plan, ae.JCT, se.JCT)
			}
			if d := math.Abs(ae.Cost - se.Cost); d > 1e-9*se.Cost {
				t.Fatalf("billing %v plan %v: analytic cost %v != segment %v", billing, plan, ae.Cost, se.Cost)
			}
			if ae.JCT <= 0 || ae.Cost <= 0 {
				t.Fatalf("billing %v plan %v: degenerate estimate %+v", billing, plan, ae)
			}
		}
	}
}

// TestAnalyticWithinMonteCarloTolerance: under stochastic latencies the
// analytic estimator is a (slightly biased) closed form of the same
// quantities Algorithm 1 samples over the full DAG; at 400 samples its
// means must sit within a few standard errors plus the documented
// moment-matching bias allowance, for both billing models.
func TestAnalyticWithinMonteCarloTolerance(t *testing.T) {
	const samples = 400
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		ana := stochasticSim(t, samples, 4, 9)
		ana.cloud.Pricing.Billing = billing
		for _, plan := range testPlans(ana) {
			ae := analyticEstimate(t, ana, plan)
			fe := algorithm1Estimate(t, ana, plan)
			if ae.JCTStd <= 0 {
				t.Fatalf("billing %v plan %v: degenerate analytic spread %+v", billing, plan, ae)
			}
			// 5 standard errors of the Monte-Carlo mean plus 1.5% for the
			// max-approximation bias (the Program-level validation in
			// moment_test.go bounds the per-stage mean error at 1%).
			jctTol := 5*fe.JCTStd/math.Sqrt(samples) + 0.015*fe.JCT
			costTol := 5*fe.CostStd/math.Sqrt(samples) + 0.015*fe.Cost
			if d := math.Abs(ae.JCT - fe.JCT); d > jctTol {
				t.Fatalf("billing %v plan %v: JCT analytic %v vs full %v (|d|=%v > %v)", billing, plan, ae.JCT, fe.JCT, d, jctTol)
			}
			if d := math.Abs(ae.Cost - fe.Cost); d > costTol {
				t.Fatalf("billing %v plan %v: cost analytic %v vs full %v (|d|=%v > %v)", billing, plan, ae.Cost, fe.Cost, d, costTol)
			}
			// The analytic spreads describe the same distributions; they
			// should be in the ballpark of the sampled spreads.
			if ae.JCTStd < 0.3*fe.JCTStd || ae.JCTStd > 3*fe.JCTStd {
				t.Fatalf("billing %v plan %v: JCTStd analytic %v vs full %v", billing, plan, ae.JCTStd, fe.JCTStd)
			}
		}
	}
}

// TestAnalyticFallsBackOnHeavyTails: a latency without a finite second
// moment (Pareto α ≤ 2) makes Estimate fall back to the segment
// Monte-Carlo path — it must return the Monte-Carlo answer bit for bit,
// and the evaluator must report ok=false rather than inventing numbers.
func TestAnalyticFallsBackOnHeavyTails(t *testing.T) {
	mk := func() *Simulator {
		s := spec.MustSHA(16, 2, 16, 2)
		prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
		cp := DefaultCloudProfile()
		cp.Overheads = cloud.Overheads{
			QueueDelay:  stats.Pareto{Scale: 2, Alpha: 1.5}, // infinite variance
			InitLatency: stats.Normal{Mu: 15, Sigma: 3},
		}
		sm, err := New(s, prof, cp, 24, stats.NewRNG(7), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	ana, seg := mk(), mk()
	for _, plan := range testPlans(ana) {
		e := ana.NewAnalyticEval()
		if _, ok, err := e.Estimate(plan); err != nil || ok {
			t.Fatalf("plan %v: evaluator ok=%v err=%v, want unsupported", plan, ok, err)
		}
		ae, err := ana.Estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		se, err := seg.EstimateMC(plan)
		if err != nil {
			t.Fatal(err)
		}
		if ae != se {
			t.Fatalf("plan %v: analytic fallback %+v != segment %+v", plan, ae, se)
		}
	}
}

// TestAnalyticPureAcrossCacheState: analytic estimates are pure — they
// must not depend on what the segment table holds, and a cold simulator
// must agree with a warm one bit for bit.
func TestAnalyticPureAcrossCacheState(t *testing.T) {
	warm := stochasticSim(t, 30, 2, 13)
	plan := testPlans(warm)[1]
	want, err := warm.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	stages := warm.Spec().NumStages()
	for g := 1; g <= 32; g++ {
		if _, err := warm.Estimate(Uniform(g, stages)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := warm.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("estimate changed with cache state: %+v != %+v", got, want)
	}
	cold := stochasticSim(t, 30, 2, 13)
	cgot, err := cold.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if cgot != want {
		t.Fatalf("cold estimate %+v != warm %+v", cgot, want)
	}
}

// TestAnalyticIndependentOfSampleBudget: the analytic numbers come from
// moments, not draws — changing the Monte-Carlo sample budget must not
// move them at all.
func TestAnalyticIndependentOfSampleBudget(t *testing.T) {
	a := stochasticSim(t, 10, 1, 5)
	b := stochasticSim(t, 400, 4, 99)
	for _, plan := range testPlans(a) {
		ea, eb := analyticEstimate(t, a, plan), analyticEstimate(t, b, plan)
		if ea != eb {
			t.Fatalf("plan %v: estimate depends on sample budget: %+v != %+v", plan, ea, eb)
		}
	}
}

// TestCanonicalAllocSharesEverything: allocations that are behaviorally
// identical (same per-trial GPU share, same cluster size) must share
// segments, sample vectors, RNG streams, and moments — so their estimates
// are bit-identical analytically and by Monte-Carlo. This is the
// property the planner's frontier deduplication relies on.
func TestCanonicalAllocSharesEverything(t *testing.T) {
	for _, est := range estimators {
		sm := stochasticSim(t, 30, 2, 17)
		stages := sm.Spec().NumStages()
		stage := -1
		for i := 0; i < stages; i++ {
			if sm.Spec().Stage(i).Trials > 1 {
				stage = i
				break
			}
		}
		if stage < 0 {
			t.Fatal("no multi-trial stage in test spec")
		}
		trials := sm.Spec().Stage(stage).Trials
		a, b := Uniform(8, stages), Uniform(8, stages)
		a.Alloc[stage] = 2 * trials   // 2 GPUs per trial exactly
		b.Alloc[stage] = 2*trials + 1 // one idle GPU: same behavior, same cost
		ea, err := est.estimate(sm, a)
		if err != nil {
			t.Fatal(err)
		}
		segsBefore, _, _ := tableCounts(sm)
		eb, err := est.estimate(sm, b)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("%s: equivalent allocations estimate differently: %+v != %+v", est.name, ea, eb)
		}
		if got, _, _ := tableCounts(sm); got != segsBefore {
			t.Fatalf("%s: segment table grew from %d to %d on an equivalent allocation", est.name, segsBefore, got)
		}
	}
}

// TestAnalyticMomentCacheReusesAcrossPlans: like the sample vectors, the
// moments live on the tuple-keyed segments — re-estimating a plan that
// shares all but one stage fills exactly one new moment entry.
func TestAnalyticMomentCacheReusesAcrossPlans(t *testing.T) {
	sm := stochasticSim(t, 10, 1, 21)
	stages := sm.Spec().NumStages()
	if _, err := sm.Estimate(Uniform(16, stages)); err != nil {
		t.Fatal(err)
	}
	_, _, before := tableCounts(sm)
	alloc := Uniform(16, stages).Alloc
	alloc[stages-1] = 8
	if _, err := sm.Estimate(Plan{Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	if _, _, got := tableCounts(sm); got != before+1 {
		t.Fatalf("filled moments grew from %d to %d, want exactly one new entry", before, got)
	}
}

// TestAnalyticEvalWarmZeroAlloc pins the warm analytic path — a plan
// search's per-candidate cost — at zero heap allocations, for
// both billing models.
func TestAnalyticEvalWarmZeroAlloc(t *testing.T) {
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		sm := stochasticSim(t, 20, 1, 31)
		sm.cloud.Pricing.Billing = billing
		plans := testPlans(sm)
		e := sm.NewAnalyticEval()
		for _, p := range plans { // fill the segment table
			if _, ok, err := e.Estimate(p); err != nil || !ok {
				t.Fatalf("billing %v plan %v: ok=%v err=%v", billing, p, ok, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, p := range plans {
				if _, _, err := e.Estimate(p); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("billing %v: warm Estimate allocates %v per frontier, want 0", billing, allocs)
		}
	}
}
