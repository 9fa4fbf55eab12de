// Metamorphic tests for the planning stack: instead of pinning absolute
// outputs, each test transforms a planner input in a way with a known
// effect on the output (scaling prices, permuting trial identities,
// tightening the deadline) and checks the relation on generated harness
// scenarios. The tests live in an external test package so they can reuse
// the chaos harness's scenario generator without an import cycle.
package planner_test

import (
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/harness"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// scalePrices returns a copy of cp with every dollar-denominated rate
// multiplied by k. Time-denominated knobs (billing minimum, overheads)
// are deliberately untouched: they are not prices.
func scalePrices(cp cloud.Profile, k float64) cloud.Profile {
	cp.Instance.OnDemandPerHour *= k
	cp.Instance.SpotPerHour *= k
	cp.Pricing.DataPricePerGB *= k
	return cp
}

// newPlanner mirrors the harness's planner construction for scenario sc
// over the given cloud profile.
func newPlanner(t *testing.T, sc harness.Scenario, cp cloud.Profile, delta float64) (*planner.Planner, float64) {
	t.Helper()
	profile := sim.ModelTrainProfile{
		Model:       sc.Model,
		Batch:       sc.Model.BaseBatch,
		GPUsPerNode: cp.Instance.GPUs,
	}
	sm, err := sim.New(sc.Spec, profile, cp, 0, nil)
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	deadline := sm.StaticClusterJCT(sc.MaxGPUs) * sc.DeadlineFactor
	return &planner.Planner{Sim: sm, Deadline: deadline, MaxGPUs: sc.MaxGPUs, Delta: delta}, deadline
}

// metamorphicScenarios yields up to n generated scenarios whose sampled
// deadline the elastic planner accepts (the metamorphic relations are
// about plans, so infeasible draws carry no information).
func metamorphicScenarios(t *testing.T, seed uint64, n int) []harness.Scenario {
	t.Helper()
	var out []harness.Scenario
	for i := 0; i < 200 && len(out) < n; i++ {
		sc := harness.Generate(seed, i)
		p, _ := newPlanner(t, sc, sc.Profile, 0.01)
		if _, err := p.PlanElastic(); err == nil {
			out = append(out, sc)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d feasible scenarios found under seed %d", len(out), n, seed)
	}
	return out
}

// TestPriceScalingElastic: multiplying every price by k changes no
// latency, so PlanElastic must return the identical allocation with cost
// scaled by exactly k. Delta is a dollar threshold, so it scales with the
// prices; k is a power of two, so the cost relation is bit-exact.
func TestPriceScalingElastic(t *testing.T) {
	const k = 2.0
	for _, sc := range metamorphicScenarios(t, 31, 5) {
		base, _ := newPlanner(t, sc, sc.Profile, 0.01)
		scaled, _ := newPlanner(t, sc, scalePrices(sc.Profile, k), 0.01*k)
		r1, err1 := base.PlanElastic()
		r2, err2 := scaled.PlanElastic()
		if err1 != nil || err2 != nil {
			t.Fatalf("%d/%d: base err %v, scaled err %v", sc.BatchSeed, sc.Index, err1, err2)
		}
		if !r1.Plan.Equal(r2.Plan) {
			t.Errorf("%d/%d: price scaling changed the plan: %v -> %v", sc.BatchSeed, sc.Index, r1.Plan, r2.Plan)
		}
		if r2.Estimate.Cost != k*r1.Estimate.Cost {
			t.Errorf("%d/%d: cost %v at %vx prices, want exactly %v", sc.BatchSeed, sc.Index, r2.Estimate.Cost, k, k*r1.Estimate.Cost)
		}
		if r2.Estimate.JCT != r1.Estimate.JCT {
			t.Errorf("%d/%d: price scaling changed predicted JCT: %v -> %v", sc.BatchSeed, sc.Index, r1.Estimate.JCT, r2.Estimate.JCT)
		}
	}
}

// TestDeadlineTighteningNeverLowersCost: shrinking the deadline shrinks
// the feasible set, so the optimal cost is non-decreasing as the deadline
// tightens (an infeasible tight deadline satisfies the relation vacuously).
func TestDeadlineTighteningNeverLowersCost(t *testing.T) {
	for _, sc := range metamorphicScenarios(t, 35, 6) {
		loose, deadline := newPlanner(t, sc, sc.Profile, 0.01)
		rl, err := loose.PlanElastic()
		if err != nil {
			t.Fatalf("%d/%d: %v", sc.BatchSeed, sc.Index, err)
		}
		for _, shrink := range []float64{0.9, 0.75, 0.5} {
			tight, _ := newPlanner(t, sc, sc.Profile, 0.01)
			tight.Deadline = deadline * shrink
			rt, err := tight.PlanElastic()
			if err == planner.ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%d/%d at %vx deadline: %v", sc.BatchSeed, sc.Index, shrink, err)
			}
			if rt.Estimate.Cost < rl.Estimate.Cost-1e-9 {
				t.Errorf("%d/%d: tightening deadline to %vx LOWERED cost: %v -> %v",
					sc.BatchSeed, sc.Index, shrink, rl.Estimate.Cost, rt.Estimate.Cost)
			}
		}
	}
}

// TestPlanInvariantUnderTrialPermutation: trial IDs are interchangeable
// labels — iteration latency depends on allocation, not on which
// hyperparameter config a trial carries — so permuting the config-to-trial
// assignment must leave the plan, the realized schedule, the JCT and the
// cost unchanged (only the identity of the winning trial may move).
func TestPlanInvariantUnderTrialPermutation(t *testing.T) {
	tested := 0
	for i := 0; i < 200 && tested < 4; i++ {
		sc := harness.Generate(17, i)
		if sc.Profile.Faults != (cloud.FaultModel{}) || sc.Spec.TotalTrials() < 2 {
			continue
		}
		p, _ := newPlanner(t, sc, sc.Profile, 0.01)
		res, err := p.PlanElastic()
		if err != nil {
			continue
		}
		tested++

		cfgs := sc.Space.SampleN(stats.NewRNG(99), sc.Spec.TotalTrials())
		rotated := append(append([]searchspace.Config(nil), cfgs[1:]...), cfgs[0])

		run := func(assign []searchspace.Config) *executor.Result {
			clock := vclock.New()
			provider, err := cloud.NewProvider(clock, stats.NewRNG(7), sc.Profile)
			if err != nil {
				t.Fatalf("%d/%d: provider: %v", sc.BatchSeed, sc.Index, err)
			}
			mgr, err := cluster.NewManager(provider, sc.Profile.Instance, clock)
			if err != nil {
				t.Fatalf("%d/%d: cluster: %v", sc.BatchSeed, sc.Index, err)
			}
			out, err := executor.Run(executor.Config{
				Spec:             sc.Spec,
				Plan:             res.Plan,
				Model:            sc.Model,
				Batch:            sc.Model.BaseBatch,
				Configs:          assign,
				Provider:         provider,
				Cluster:          mgr,
				Clock:            clock,
				RNG:              stats.NewRNG(8),
				DisablePlacement: sc.DisablePlacement,
				Trace:            trace.New(),
			})
			if err != nil {
				t.Fatalf("%d/%d: run: %v", sc.BatchSeed, sc.Index, err)
			}
			return out
		}

		a, b := run(cfgs), run(rotated)
		if a.JCT != b.JCT {
			t.Errorf("%d/%d: permuting trial configs changed JCT: %v -> %v", sc.BatchSeed, sc.Index, a.JCT, b.JCT)
		}
		if a.Cost != b.Cost {
			t.Errorf("%d/%d: permuting trial configs changed cost: %v -> %v", sc.BatchSeed, sc.Index, a.Cost, b.Cost)
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) {
			t.Errorf("%d/%d: permuting trial configs changed the schedule:\n%v\n%v", sc.BatchSeed, sc.Index, a.Schedule, b.Schedule)
		}
		if !a.FinalPlan.Equal(b.FinalPlan) {
			t.Errorf("%d/%d: permuting trial configs changed the executed plan: %v -> %v", sc.BatchSeed, sc.Index, a.FinalPlan, b.FinalPlan)
		}
	}
	if tested < 4 {
		t.Fatalf("only %d fault-free feasible scenarios found under seed 17", tested)
	}
}
