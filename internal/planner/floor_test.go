package planner_test

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// keptSizes returns the static sizes 1..n whose closed-form JCT meets
// the deadline: the sizes PlanStatic considers.
func keptSizes(sm *sim.Simulator, n int, deadline float64) []int {
	var kept []int
	for g, jct := range sm.StaticClusterJCTs(n, nil) {
		if jct <= deadline {
			kept = append(kept, g+1)
		}
	}
	return kept
}

// TestStaticFloorBoundsKeptSizes: on the metamorphic corpus, at every
// size the JCT bound keeps, the Simulator's static cost floor holds and
// does not exceed the estimated cost of the static plan. It logs the
// share of kept sizes PlanStatic skips.
func TestStaticFloorBoundsKeptSizes(t *testing.T) {
	var kept, estimated int64
	for _, sc := range metamorphicScenarios(t, 7, 12) {
		p, deadline := newPlanner(t, sc, sc.Profile, 0.01)
		sizes := keptSizes(p.Sim, sc.MaxGPUs, deadline)
		for _, g := range sizes {
			floor, ok := p.Sim.StaticCostFloor(g)
			if !ok {
				t.Fatalf("%s: no static cost floor at %d GPUs", sc, g)
			}
			est, err := p.Sim.Estimate(sim.Uniform(g, sc.Spec.NumStages()))
			if err != nil {
				t.Fatal(err)
			}
			if floor > est.Cost {
				t.Errorf("%s: static cost floor %v at %d GPUs exceeds the estimated cost %v", sc, floor, g, est.Cost)
			}
		}
		search, _ := newPlanner(t, sc, sc.Profile, 0.01)
		if _, err := search.PlanStatic(); err != nil {
			t.Fatal(err)
		}
		kept += int64(len(sizes))
		estimated += search.EstimateCalls()
	}
	t.Logf("PlanStatic estimated %d of %d kept sizes", estimated, kept)
}

// paretoProfile is a training profile whose iteration latency at g GPUs
// is Pareto with minimum base/g and tail index alpha.
type paretoProfile struct{ base, alpha float64 }

func (p paretoProfile) IterDist(gpus int) stats.Dist {
	return stats.Pareto{Scale: p.base / float64(gpus), Alpha: p.alpha}
}

// TestPlanStaticWithoutFloorEstimatesEveryKeptSize: under a Pareto
// α = 2.5 iteration profile, which is not one of the profiles known to
// return normal or deterministic latencies, the floor reports itself
// unusable, and PlanStatic estimates every size the JCT bound keeps,
// returning what the unpruned enumeration returns. A Pareto α = 1.8
// queue delay, which the floor used to refuse, is refused by the
// Simulator itself.
func TestPlanStaticWithoutFloorEstimatesEveryKeptSize(t *testing.T) {
	cp := cloud.PaperProfile(0)
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Pareto{Scale: 2, Alpha: 1.8},
		InitLatency: stats.Deterministic{Value: 15},
	}
	resnet := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	if _, err := sim.New(spec.MustSHA(16, 2, 16, 2), resnet, cp, 0, nil); err == nil {
		t.Fatal("the Simulator accepted a Pareto α = 1.8 queue delay")
	}
	cp.Overheads.QueueDelay = stats.Exponential{MeanValue: 5}
	newSim := func() *sim.Simulator {
		sm, err := sim.New(spec.MustSHA(16, 2, 16, 2), paretoProfile{base: 4, alpha: 2.5}, cp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	const maxGPUs = 48
	sm := newSim()
	deadline := 2 * sm.StaticClusterJCT(4)
	sizes := keptSizes(sm, maxGPUs, deadline)
	if len(sizes) < 8 {
		t.Fatalf("the JCT bound keeps %d sizes; the test is vacuous", len(sizes))
	}
	for _, g := range sizes {
		if floor, ok := sm.StaticCostFloor(g); ok {
			t.Fatalf("static cost floor %v at %d GPUs reported usable under a Pareto profile", floor, g)
		}
	}
	p := &planner.Planner{Sim: sm, Deadline: deadline, MaxGPUs: maxGPUs}
	got, gerr := p.PlanStatic()
	if gerr != nil {
		t.Fatal(gerr)
	}
	if n := p.EstimateCalls(); n != int64(len(sizes)) {
		t.Fatalf("PlanStatic estimated %d sizes, want all %d the JCT bound keeps", n, len(sizes))
	}
	want, err := planner.ReferencePlanStatic(&planner.Planner{Sim: newSim(), Deadline: deadline, MaxGPUs: maxGPUs})
	if !planner.SameResult(got, gerr, want, err) {
		t.Fatalf("PlanStatic gave %v %+v (err %v), the unpruned enumeration %v %+v (err %v)",
			got.Plan, got.Estimate, gerr, want.Plan, want.Estimate, err)
	}
}
