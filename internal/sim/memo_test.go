package sim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

// twin returns a plan canonically equal to p under sm's spec: each
// allocation at or above its stage's trial count moves within its fair
// share's class [k·trials, (k+1)·trials), drawn from rng.
func twin(sm *Simulator, p Plan, rng *stats.RNG) Plan {
	q := p.Clone()
	for i, a := range q.Alloc {
		if trials := sm.Spec().Stage(i).Trials; a >= trials {
			q.Alloc[i] = a - a%trials + rng.Intn(trials)
		}
	}
	return q
}

// bitEqual reports whether two estimates agree in every bit.
func bitEqual(a, b Estimate) bool {
	return math.Float64bits(a.JCT) == math.Float64bits(b.JCT) &&
		math.Float64bits(a.JCTStd) == math.Float64bits(b.JCTStd) &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		math.Float64bits(a.CostStd) == math.Float64bits(b.CostStd)
}

// TestCanonicalPlansShareMemoEntry: plans that differ only within their
// fair shares' classes share one plan-memo entry, and each one's
// estimate computed on its own, on a fresh Simulator without the memo,
// is bit-identical to the shared entry; the Monte-Carlo oracle, which
// keeps no memo, gives twins bit-identical estimates too. This is what
// makes the memo's canonical key sound.
func TestCanonicalPlansShareMemoEntry(t *testing.T) {
	rng := stats.NewRNG(61)
	for _, est := range estimators {
		sm := stochasticSim(t)
		estimate := est.on(sm, 20, 31)
		stages := sm.Spec().NumStages()
		var plans []Plan
		for i := 0; i < 12; i++ {
			p := make([]int, stages)
			for j := range p {
				p[j] = 1 + rng.Intn(48)
			}
			plans = append(plans, Plan{Alloc: p})
		}
		plans = append(plans, testPlans(sm)...)
		merged := 0
		for _, p := range plans {
			want, err := estimate(p)
			if err != nil {
				t.Fatal(err)
			}
			entries := len(sm.tab.entries)
			for k := 0; k < 4; k++ {
				q := twin(sm, p, rng)
				got, err := estimate(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(sm.tab.entries) != entries {
					t.Fatalf("%s: twin %v of %v took a memo entry of its own", est.name, q, p)
				}
				alone, err := est.on(stochasticSim(t), 20, 31)(q)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(got, want) || !bitEqual(alone, want) {
					t.Fatalf("%s: twin %v of %v reads %+v and computes %+v alone, want %+v", est.name, q, p, got, alone, want)
				}
				if !q.Equal(p) {
					merged++
				}
			}
		}
		if merged == 0 {
			t.Fatalf("%s: no twin differed from its plan; the test is vacuous", est.name)
		}
	}
}

// TestEstimateErrorsAreNotMemoized: a plan that fails validation
// returns its error every time and takes no memo entry, even when its
// allocations wrap to a memoized plan's in 32 bits.
func TestEstimateErrorsAreNotMemoized(t *testing.T) {
	sm := stochasticSim(t)
	if _, err := sm.Estimate(NewPlan(16, 8, 4, 2)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Plan{NewPlan(16, 8), NewPlan(16, 8, 0, 2), NewPlan(16, 8, -4, 2), NewPlan(16, 8, 4, math.MaxInt32+1), NewPlan(16, 8, 4, 1<<32+2)} {
		for k := 0; k < 2; k++ {
			if _, err := sm.Estimate(p); err == nil {
				t.Fatalf("Estimate(%v) succeeded", p)
			}
		}
	}
	if len(sm.tab.entries) != 1 {
		t.Fatalf("the memo holds %d entries after one valid plan, want 1", len(sm.tab.entries))
	}
}

// TestRecycledPlanMemoMatchesFresh: a Simulator whose segment table and
// plan memo it filled under another spec, re-initialised in place,
// answers every plan exactly as a new Simulator does, analytically and
// through the Monte-Carlo oracle. The two specs have the same
// stage count, so every plan is valid under both and a memo entry that
// survived the reset would be read back.
func TestRecycledPlanMemoMatchesFresh(t *testing.T) {
	other := func() *Simulator {
		t.Helper()
		m := model.ResNet50()
		m.IterNoiseStd = 0.2
		cp := DefaultCloudProfile()
		cp.Pricing.Billing = cloud.PerFunction
		sm, err := New(spec.MustSHA(8, 1, 8, 2), ModelTrainProfile{Model: m, Batch: 256, GPUsPerNode: 8}, cp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	for _, est := range estimators {
		// The donor fills its table and memo on the other spec.
		donor := other()
		donorMC := newMonteCarlo(donor, 9, stats.NewRNG(5))
		if donor.Spec().NumStages() != 4 {
			t.Fatalf("donor spec has %d stages, want 4", donor.Spec().NumStages())
		}
		var plans []Plan
		for _, a := range []int{1, 2, 3, 8, 16, 24} {
			plans = append(plans, Uniform(a, 4), NewPlan(2*a, a, a, 1))
		}
		for _, p := range plans {
			if _, err := donor.Estimate(p); err != nil {
				t.Fatal(err)
			}
			if _, err := donorMC.estimate(p); err != nil {
				t.Fatal(err)
			}
		}
		if len(donor.tab.entries) != len(plans) {
			t.Fatalf("donor memoized %d plans, want %d", len(donor.tab.entries), len(plans))
		}
		recycled := donor
		initStochasticSim(t, recycled)
		if recycled.tab.plans.n != 0 {
			t.Fatalf("a re-initialised table indexes %d plan hashes, want 0", recycled.tab.plans.n)
		}
		recycledEst, freshEst := est.on(recycled, 20, 31), est.on(stochasticSim(t), 20, 31)
		for round := 0; round < 2; round++ { // misses, then memo hits
			for _, p := range plans {
				got, err := recycledEst(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := freshEst(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(got, want) {
					t.Fatalf("%s round %d: %v re-initialised %+v, new %+v", est.name, round, p, got, want)
				}
			}
		}
	}
}
