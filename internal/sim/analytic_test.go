package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// analyticEstimate evaluates p without the plan memo, failing the test
// on error.
func analyticEstimate(t *testing.T, sm *Simulator, p Plan) Estimate {
	t.Helper()
	est, err := sm.estimate(p)
	if err != nil {
		t.Fatalf("plan %v: %v", p, err)
	}
	return est
}

// TestAnalyticAgreesExactlyUnderDeterministicLatencies: with point-mass
// latencies everywhere the moment pass is exact (every variance is zero),
// so the analytic estimate must match the Monte-Carlo oracle to float
// round-off, under both billing models and for all plan shapes.
func TestAnalyticAgreesExactlyUnderDeterministicLatencies(t *testing.T) {
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		sm := deterministicSim(t, billing)
		mc := newMonteCarlo(sm, 5, stats.NewRNG(77))
		for _, plan := range testPlans(sm) {
			ae, err := sm.Estimate(plan)
			if err != nil {
				t.Fatal(err)
			}
			se, err := mc.estimate(plan)
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
		ana := stochasticSim(t)
		ana.cloud.Pricing.Billing = billing
		mc := newMonteCarlo(ana, samples, stats.NewRNG(9))
		for _, plan := range testPlans(ana) {
			ae := analyticEstimate(t, ana, plan)
			fe := algorithm1Estimate(t, mc, plan)
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

// TestInitRefusesUnsupportedProvisioning: a provisioning latency the
// analytic estimate cannot bound — nil, without a finite variance
// (Pareto α ≤ 2), with a negative mean, or able to sample below zero —
// is refused by New with an error naming the latency, and the same
// Simulator re-initialised with it is left unusable; a Pareto with
// α > 2 is accepted and estimated analytically, its spread finite.
func TestInitRefusesUnsupportedProvisioning(t *testing.T) {
	s, prof, _ := stochasticJob()
	ok := cloud.Overheads{QueueDelay: stats.Exponential{MeanValue: 5}, InitLatency: stats.Normal{Mu: 15, Sigma: 3}}
	for _, c := range []struct {
		name  string
		lat   stats.Dist
		queue bool // the queue delay, else the init latency
	}{
		{"nil queue delay", nil, true},
		{"nil init latency", nil, false},
		{"pareto 1.5 queue delay", stats.Pareto{Scale: 2, Alpha: 1.5}, true},
		{"pareto 1.5 init latency", stats.Pareto{Scale: 2, Alpha: 1.5}, false},
		{"negative-mean normal queue delay", stats.Normal{Mu: -5}, true},
		{"negative-mean normal init latency", stats.Normal{Mu: -5}, false},
		{"uniform below zero queue delay", stats.Uniform{Lo: -1, Hi: 5}, true},
		{"uniform below zero init latency", stats.Uniform{Lo: -1, Hi: 5}, false},
	} {
		cp := cloud.PaperProfile(0)
		cp.Overheads = ok
		want := "init latency"
		if c.queue {
			cp.Overheads.QueueDelay, want = c.lat, "queue delay"
		} else {
			cp.Overheads.InitLatency = c.lat
		}
		_, err := New(s, prof, cp, 0, nil)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: New error %v, want one naming the %s", c.name, err, want)
		}
		sm := stochasticSim(t)
		if err := sm.Init(s, prof, cp); err == nil {
			t.Fatalf("%s: Init accepted it", c.name)
		}
		if sm.spec != nil || sm.tab.index.n != 0 {
			t.Fatalf("%s: a refused Init left the Simulator set up", c.name)
		}
	}
	cp := cloud.PaperProfile(0)
	cp.Overheads = ok
	cp.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 2.5}
	sm, err := New(s, prof, cp, 0, nil)
	if err != nil {
		t.Fatalf("pareto 2.5 queue delay refused: %v", err)
	}
	for _, plan := range testPlans(sm) {
		est := analyticEstimate(t, sm, plan)
		if !(est.JCTStd > 0) || math.IsInf(est.JCTStd, 0) || math.IsInf(est.CostStd, 0) {
			t.Fatalf("plan %v: pareto 2.5 estimate %+v, want a finite positive spread", plan, est)
		}
	}
}

// TestAnalyticPureAcrossCacheState: analytic estimates are pure — they
// must not depend on what the segment table holds, and a cold simulator
// must agree with a warm one bit for bit.
func TestAnalyticPureAcrossCacheState(t *testing.T) {
	warm := stochasticSim(t)
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
	cold := stochasticSim(t)
	cgot, err := cold.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if cgot != want {
		t.Fatalf("cold estimate %+v != warm %+v", cgot, want)
	}
}

// TestAnalyticIndependentOfSampleBudget: the analytic numbers come from
// moments, not draws — the sample budget and seed New still accepts,
// deprecated, must not move them at all.
func TestAnalyticIndependentOfSampleBudget(t *testing.T) {
	s, prof, cp := stochasticJob()
	a, err := New(s, prof, cp, 10, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(s, prof, cp, 200, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range testPlans(a) {
		ea, eb := analyticEstimate(t, a, plan), analyticEstimate(t, b, plan)
		if ea != eb {
			t.Fatalf("plan %v: estimate depends on sample budget: %+v != %+v", plan, ea, eb)
		}
	}
}

// TestCanonicalAllocSharesEverything: allocations that are behaviorally
// identical (same per-trial GPU share, same cluster size) must share
// segments and moments, and in the oracle sample vectors and RNG
// streams — so their estimates are bit-identical analytically and by
// Monte-Carlo. This is the property the planner's frontier
// deduplication relies on.
func TestCanonicalAllocSharesEverything(t *testing.T) {
	for _, est := range estimators {
		sm := stochasticSim(t)
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
		estimate := est.on(sm, 20, 31)
		ea, err := estimate(a)
		if err != nil {
			t.Fatal(err)
		}
		segsBefore, _ := tableCounts(sm)
		eb, err := estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("%s: equivalent allocations estimate differently: %+v != %+v", est.name, ea, eb)
		}
		if got, _ := tableCounts(sm); got != segsBefore {
			t.Fatalf("%s: segment table grew from %d to %d on an equivalent allocation", est.name, segsBefore, got)
		}
	}
}

// TestAnalyticMomentCacheReusesAcrossPlans: the moments live on the
// tuple-keyed segments — estimating a plan that shares all but one stage
// with an estimated one fills exactly one new moment entry.
func TestAnalyticMomentCacheReusesAcrossPlans(t *testing.T) {
	sm := stochasticSim(t)
	stages := sm.Spec().NumStages()
	if _, err := sm.Estimate(Uniform(16, stages)); err != nil {
		t.Fatal(err)
	}
	_, before := tableCounts(sm)
	alloc := Uniform(16, stages).Alloc
	alloc[stages-1] = 8
	if _, err := sm.Estimate(Plan{Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	if _, got := tableCounts(sm); got != before+1 {
		t.Fatalf("filled moments grew from %d to %d, want exactly one new entry", before, got)
	}
}

// TestAnalyticEvalWarmZeroAlloc pins the warm analytic path — a plan
// search's per-candidate cost — at zero heap allocations, for
// both billing models.
func TestAnalyticEvalWarmZeroAlloc(t *testing.T) {
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		sm := stochasticSim(t)
		sm.cloud.Pricing.Billing = billing
		plans := testPlans(sm)
		for _, p := range plans { // fill the segment table
			analyticEstimate(t, sm, p)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, p := range plans {
				if _, err := sm.estimate(p); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("billing %v: warm Estimate allocates %v per frontier, want 0", billing, allocs)
		}
	}
}
