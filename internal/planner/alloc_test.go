package planner

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
)

// The allocation contract of a search: its working memory comes from
// the search pool, so a search on a warm Planner (every estimate in the
// simulator's plan memo, every segment in its table) allocates only the
// plans it keeps.

// skipUnderRace skips pooled-path allocation counts, which the race
// detector's random sync.Pool discards would inflate.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
}

// warmPlanner returns a serial planner, after one search, over the
// micro-benchmarks' 64-trial, four-stage job, whose descents take a
// dozen steps.
func warmPlanner(t *testing.T) *Planner {
	s := spec.MustSHA(64, 4, 508, 2)
	p := &Planner{Sim: resnetSim(t, s, 8, 3), Deadline: 3000}
	if _, err := p.PlanElastic(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanStaticAllocs: a second PlanStatic on a warm Planner allocates
// only its returned plan.
func TestPlanStaticAllocs(t *testing.T) {
	skipUnderRace(t)
	p := warmPlanner(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.PlanStatic(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("warm PlanStatic allocates %v, want 1 (the returned plan)", allocs)
	}
}

// TestPlanElasticWarmAllocs: a second PlanElastic on the same warm
// Planner allocates only its returned plan, however many descent steps
// it accepts: each step is carved from the search's scratch.
func TestPlanElasticWarmAllocs(t *testing.T) {
	skipUnderRace(t)
	p := warmPlanner(t)
	ss := newSearch()
	if _, err := p.planElastic(ss); err != nil {
		t.Fatal(err)
	}
	steps := len(ss.walked)
	for i, w := range ss.walked {
		if i == 0 || w.descent != ss.walked[i-1].descent {
			steps-- // a descent's first walked plan is its warm start
		}
	}
	ss.release()
	if steps == 0 {
		t.Fatal("no descent took a step; the pin would not cover step plans")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.PlanElastic(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm PlanElastic allocates %v over %d accepted steps, want 1 (the returned plan)", allocs, steps)
	}
	t.Logf("%d accepted steps, %v allocations", steps, allocs)
}

// lifecycleAllocs bounds the allocation count of a cold search on a
// re-initialised Simulator in TestPlanElasticLifecycleAllocs. Most of it
// is the profile boxing one iteration distribution per per-trial share
// the search reads (about 260); the rest is the returned plan. The plan
// memo lives in the kept table and the descent steps in the search's
// scratch, so neither adds anything.
const lifecycleAllocs = 267

// TestPlanElasticLifecycleAllocs pins the cold search of a kept
// Simulator, the replanner's and the harness's pattern: Init,
// PlanElastic, Init. The search after the second Init runs on the table
// the first search filled, emptied, so it allocates nothing for segment
// records, sample vectors or moments, and fewer objects than the same
// search on a new Simulator, which allocates its table and the slabs'
// chunks.
func TestPlanElasticLifecycleAllocs(t *testing.T) {
	skipUnderRace(t)
	s := spec.MustSHA(64, 4, 508, 2)
	search := func(sm *sim.Simulator) {
		initResnetSim(t, sm, s, 8, 3)
		p := &Planner{Sim: sm, Deadline: 3000}
		if _, err := p.PlanElastic(); err != nil {
			t.Fatal(err)
		}
	}
	var kept sim.Simulator
	search(&kept) // the first Init allocates the table
	reinit := testing.AllocsPerRun(10, func() { search(&kept) })
	fresh := testing.AllocsPerRun(10, func() { search(new(sim.Simulator)) })
	if reinit > lifecycleAllocs || reinit >= fresh {
		t.Fatalf("cold search allocates %v on a re-initialised Simulator and %v on a new one, want at most %d and fewer than on a new one",
			reinit, fresh, lifecycleAllocs)
	}
	t.Logf("cold search: %v allocations on a re-initialised Simulator, %v on a new one", reinit, fresh)
}
