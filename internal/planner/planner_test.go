package planner

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// resnetSim builds a deterministic-overhead simulator over a ResNet-50
// style job for planner tests.
func resnetSim(t *testing.T, s *spec.ExperimentSpec) *sim.Simulator {
	t.Helper()
	sm := new(sim.Simulator)
	initResnetSim(t, sm, s)
	return sm
}

// initResnetSim initialises sm in place as the Simulator resnetSim
// returns for the same spec.
func initResnetSim(t *testing.T, sm *sim.Simulator, s *spec.ExperimentSpec) {
	t.Helper()
	m := model.ResNet50()
	m.IterNoiseStd = 0.1
	prof := sim.ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: 4}
	cp := sim.DefaultCloudProfile()
	cp.Pricing.MinChargeSeconds = 0
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	if err := sm.Init(s, prof, cp); err != nil {
		t.Fatal(err)
	}
}

// TestParsePolicy maps each policy name, and the empty default, to its
// policy and rejects any other name.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{
		"":           PolicyRubberBand,
		"rubberband": PolicyRubberBand,
		"static":     PolicyStatic,
		"naive":      PolicyNaiveElastic,
	} {
		if got, err := ParsePolicy(name); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"magic", "RubberBand", "Static"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
	}
}

func TestFairStepDown(t *testing.T) {
	cases := []struct {
		alloc, trials int
		want          int
		ok            bool
	}{
		{20, 10, 10, true}, // next multiple below
		{10, 10, 5, true},  // largest factor below
		{5, 10, 2, true},
		{2, 10, 1, true},
		{1, 10, 0, false}, // nothing below 1
		{16, 4, 12, true}, // multiples of 4: 12
		{4, 4, 2, true},
		{3, 4, 2, true},
		{7, 3, 6, true},
		{2, 1, 1, true}, // everything divides 1
	}
	for _, c := range cases {
		got, ok := fairStepDown(c.alloc, c.trials)
		if got != c.want || ok != c.ok {
			t.Errorf("fairStepDown(%d,%d) = (%d,%v), want (%d,%v)",
				c.alloc, c.trials, got, ok, c.want, c.ok)
		}
	}
}

func TestGenerateCandidates(t *testing.T) {
	s := spec.Empty().AddStage(4, 10).AddStage(2, 20)
	cur := sim.NewPlan(8, 4)
	cands := generateCandidates(new(candSet), cur, s, 4)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates", len(cands))
	}
	// Stage 0 (4 trials): 8 -> 4. Stage 1 (2 trials): 4 -> 2.
	if !cands[0].Equal(sim.NewPlan(4, 4)) {
		t.Errorf("candidate 0 = %v", cands[0])
	}
	if !cands[1].Equal(sim.NewPlan(8, 2)) {
		t.Errorf("candidate 1 = %v", cands[1])
	}
	// Floor plan yields no candidates.
	if got := generateCandidates(new(candSet), sim.NewPlan(1, 1), s, 4); len(got) != 0 {
		t.Errorf("floor plan produced candidates: %v", got)
	}
}

func TestMarginalBenefit(t *testing.T) {
	cur := sim.Estimate{JCT: 100, Cost: 50}
	// Cheaper and slower: finite positive benefit.
	b := marginalBenefit(cur, sim.Estimate{JCT: 120, Cost: 40})
	if math.Abs(b-0.5) > 1e-12 {
		t.Errorf("benefit = %v, want 0.5", b)
	}
	// Cheaper and faster: infinitely good.
	if b := marginalBenefit(cur, sim.Estimate{JCT: 90, Cost: 40}); !math.IsInf(b, 1) {
		t.Errorf("benefit = %v, want +inf", b)
	}
	// More expensive: infinitely bad.
	if b := marginalBenefit(cur, sim.Estimate{JCT: 120, Cost: 60}); !math.IsInf(b, -1) {
		t.Errorf("benefit = %v, want -inf", b)
	}
}

func TestPlannerValidate(t *testing.T) {
	p := &Planner{}
	if _, err := p.PlanStatic(); err == nil {
		t.Error("nil simulator accepted")
	}
	p.Sim = resnetSim(t, spec.MustSHA(8, 2, 8, 2))
	if _, err := p.PlanStatic(); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestPlanStaticFeasible(t *testing.T) {
	s := spec.MustSHA(16, 4, 32, 2)
	sm := resnetSim(t, s)
	p := &Planner{Sim: sm, Deadline: 3600}
	res, err := p.PlanStatic()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsStatic() {
		t.Fatalf("static planner returned elastic plan %v", res.Plan)
	}
	if res.Estimate.JCT > 3600 {
		t.Fatalf("plan violates deadline: %v", res.Estimate.JCT)
	}
}

func TestPlanStaticTighterDeadlineCostsMore(t *testing.T) {
	s := spec.MustSHA(16, 4, 32, 2)
	loose := &Planner{Sim: resnetSim(t, s), Deadline: 7200}
	tight := &Planner{Sim: resnetSim(t, s), Deadline: 150}
	rl, err := loose.PlanStatic()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tight.PlanStatic()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Plan.Max() <= rl.Plan.Max() {
		t.Errorf("tight deadline cluster %v not larger than loose %v", rt.Plan, rl.Plan)
	}
	if rt.Estimate.Cost < rl.Estimate.Cost {
		t.Errorf("tight deadline cheaper (%v) than loose (%v)", rt.Estimate.Cost, rl.Estimate.Cost)
	}
}

func TestPlanStaticInfeasible(t *testing.T) {
	s := spec.MustSHA(16, 4, 32, 2)
	p := &Planner{Sim: resnetSim(t, s), Deadline: 1, MaxGPUs: 32}
	if _, err := p.PlanStatic(); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPlanElasticNeverWorseThanStatic(t *testing.T) {
	// The structural guarantee of §4.3: the optimizer is warm-started
	// with the optimal static allocation, so its output can only match
	// or beat it in predicted cost.
	s := spec.MustSHA(32, 2, 32, 2)
	for _, deadline := range []float64{1200, 2400, 4800} {
		sm := resnetSim(t, s)
		p := &Planner{Sim: sm, Deadline: deadline}
		st, err := p.PlanStatic()
		if err != nil {
			t.Fatalf("deadline %v: %v", deadline, err)
		}
		el, err := p.PlanElastic()
		if err != nil {
			t.Fatalf("deadline %v: %v", deadline, err)
		}
		if el.Estimate.Cost > st.Estimate.Cost+1e-9 {
			t.Errorf("deadline %v: elastic %v worse than static %v",
				deadline, el.Estimate.Cost, st.Estimate.Cost)
		}
		if el.Estimate.JCT > deadline {
			t.Errorf("deadline %v: elastic plan violates constraint (%v)", deadline, el.Estimate.JCT)
		}
	}
}

func TestPlanElasticShrinksLaterStages(t *testing.T) {
	// For a sub-linearly scaling model with a long survivor tail, the
	// elastic plan should allocate no more to late stages than to early
	// ones.
	s := spec.MustSHA(64, 4, 508, 2)
	sm := resnetSim(t, s)
	p := &Planner{Sim: sm, Deadline: 900}
	res, err := p.PlanElastic()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.IsStatic() {
		t.Fatalf("elastic plan degenerated to static %v under a tight deadline", res.Plan)
	}
	first, last := res.Plan.Alloc[0], res.Plan.Alloc[len(res.Plan.Alloc)-1]
	if last > first {
		t.Errorf("late stage allocated more than early: %v", res.Plan)
	}
}

func TestPlanElasticBeatsStaticMeaningfully(t *testing.T) {
	// Under a tight deadline the paper reports ~2x savings on jobs whose
	// late stages dominate; require at least 10% here to confirm the
	// optimizer is actually moving.
	s := spec.MustSHA(64, 4, 508, 2)
	sm := resnetSim(t, s)
	p := &Planner{Sim: sm, Deadline: 900, MaxGPUs: 256}
	st, err := p.PlanStatic()
	if err != nil {
		t.Fatal(err)
	}
	el, err := p.PlanElastic()
	if err != nil {
		t.Fatal(err)
	}
	if el.Estimate.Cost > 0.9*st.Estimate.Cost {
		t.Errorf("elastic %v saved <10%% over static %v (plans %v vs %v)",
			el.Estimate.Cost, st.Estimate.Cost, el.Plan, st.Plan)
	}
}

func TestPlanNaiveElastic(t *testing.T) {
	s := spec.MustSHA(16, 4, 32, 2)
	sm := resnetSim(t, s)
	p := &Planner{Sim: sm, Deadline: 3600, MaxGPUs: 128}
	res, err := p.PlanNaiveElastic()
	if err != nil {
		t.Fatal(err)
	}
	// Fixed per-trial allocation: alloc[i] / trials[i] constant.
	k := res.Plan.Alloc[0] / s.Stage(0).Trials
	for i := range res.Plan.Alloc {
		if res.Plan.Alloc[i] != s.Stage(i).Trials*k {
			t.Fatalf("plan %v not fixed-per-trial", res.Plan)
		}
	}
	if res.Estimate.JCT > 3600 {
		t.Fatalf("naive plan violates deadline")
	}
}

func TestPlanNaiveElasticInfeasible(t *testing.T) {
	s := spec.MustSHA(16, 4, 32, 2)
	p := &Planner{Sim: resnetSim(t, s), Deadline: 1, MaxGPUs: 64}
	if _, err := p.PlanNaiveElastic(); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// Property: every candidate differs from the current plan in exactly one
// stage, by a fair decrement.
func TestQuickCandidatesWellFormed(t *testing.T) {
	s := spec.MustSHA(32, 2, 16, 2)
	f := func(raw []uint8) bool {
		if len(raw) < s.NumStages() {
			return true
		}
		alloc := make([]int, s.NumStages())
		for i := range alloc {
			alloc[i] = int(raw[i]%64) + 1
		}
		cur := sim.Plan{Alloc: alloc}
		for _, cand := range generateCandidates(new(candSet), cur, s, 4) {
			diff := 0
			for i := range cand.Alloc {
				if cand.Alloc[i] != cur.Alloc[i] {
					diff++
					if cand.Alloc[i] >= cur.Alloc[i] || cand.Alloc[i] < 1 {
						return false
					}
				}
			}
			if diff != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCandidatesDistinctAndUnaliased: descent candidates are pairwise
// distinct, and though they share one backing array, writing
// or appending to one reaches neither another candidate nor the current
// plan.
func TestCandidatesDistinctAndUnaliased(t *testing.T) {
	s := spec.MustSHA(32, 2, 16, 2)
	cur := sim.NewPlan(48, 24, 6)
	gen := func() []sim.Plan { return generateCandidates(new(candSet), cur, s, 4) }
	want := gen()
	if len(want) < 2 {
		t.Fatalf("only %d candidates", len(want))
	}
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if want[i].Equal(want[j]) {
				t.Fatalf("candidates %d and %d are both %v", i, j, want[i])
			}
		}
	}
	for i := range want {
		cands := gen()
		for j := range cands[i].Alloc {
			cands[i].Alloc[j] = -1
		}
		cands[i].Alloc = append(cands[i].Alloc, -1)
		for j := range cands {
			if j != i && !cands[j].Equal(want[j]) {
				t.Fatalf("writing candidate %d changed candidate %d to %v", i, j, cands[j])
			}
		}
		if !cur.Equal(sim.NewPlan(48, 24, 6)) {
			t.Fatalf("writing candidate %d changed the current plan to %v", i, cur)
		}
	}
}

// TestMemoHitZeroAlloc: a hit in the Simulator's plan memo, on the plan
// itself or on a canonically equal one, builds its key in a stack
// buffer and allocates nothing.
func TestMemoHitZeroAlloc(t *testing.T) {
	s := spec.MustSHA(16, 2, 16, 2)
	p := &Planner{Sim: resnetSim(t, s), Deadline: 1e6}
	plan := sim.NewPlan(16, 8, 4, 2)
	want, err := p.estimate(plan) // miss: fills the memo
	if err != nil {
		t.Fatal(err)
	}
	twin := sim.NewPlan(17, 9, 5, 3) // canonically equal: the same entry
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range []sim.Plan{plan, twin} {
			if got, err := p.estimate(q); err != nil || got != want {
				t.Fatalf("memo hit on %v = (%+v, %v), want %+v", q, got, err, want)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hits allocate %v, want 0", allocs)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyRubberBand.String() != "RubberBand" ||
		PolicyStatic.String() != "Static" ||
		PolicyNaiveElastic.String() != "Naive elastic" ||
		Policy(42).String() != "Policy(42)" {
		t.Error("policy names wrong")
	}
}
