package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

// initStochasticSim initialises sm in place as the Simulator
// stochasticSim returns for the same arguments.
func initStochasticSim(t testing.TB, sm *Simulator, samples int, seed uint64) {
	t.Helper()
	s := spec.MustSHA(16, 2, 16, 2)
	prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	if err := sm.Init(s, prof, cp, samples, stats.NewRNG(seed)); err != nil {
		t.Fatal(err)
	}
}

// deterministicSim returns a simulator whose every latency source is a
// point mass: measured profile with zero straggler variance and constant
// provisioning overheads. No estimator draws any random number, so the
// analytic estimate, the Monte-Carlo one and Algorithm 1 must agree
// exactly.
func deterministicSim(t testing.TB, samples int, billing cloud.BillingModel) *Simulator {
	t.Helper()
	s := spec.MustSHA(16, 2, 16, 2)
	sc, err := model.NewInterpolatedScaling([]int{1, 2, 4, 8, 16}, []float64{1, 1.9, 3.6, 6.5, 11})
	if err != nil {
		t.Fatal(err)
	}
	prof := MeasuredTrainProfile{BaseMean: 4, BaseStd: 0, Scaling: sc}
	cp := DefaultCloudProfile()
	cp.Pricing.Billing = billing
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	sm, err := New(s, prof, cp, samples, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// estimators are the two ways a test reaches an estimate: the public
// Estimate (analytic, memoized) and the Monte-Carlo fallback, which is
// what Estimate returns when a latency lacks finite moments; mc marks
// the Monte-Carlo one.
var estimators = []struct {
	name     string
	mc       bool
	estimate func(*Simulator, Plan) (Estimate, error)
}{
	{"Estimate", false, (*Simulator).Estimate},
	{"EstimateMC", true, (*Simulator).EstimateMC},
}

// TestParseEstimator round-trips both deprecated spellings, which
// submissions may still name, and rejects others, including the retired
// "full", with an error naming the valid ones.
func TestParseEstimator(t *testing.T) {
	for _, c := range []struct {
		name string
		mode EstimatorMode
	}{{"segment", EstimatorSegment}, {"analytic", EstimatorAnalytic}} {
		got, err := ParseEstimator(c.name)
		if err != nil || got != c.mode {
			t.Fatalf("ParseEstimator(%q) = %v, %v", c.name, got, err)
		}
	}
	for _, bad := range []string{"fast", "full", ""} {
		_, err := ParseEstimator(bad)
		if err == nil {
			t.Fatalf("ParseEstimator accepted %q", bad)
		}
		if msg := err.Error(); !strings.Contains(msg, "segment") || !strings.Contains(msg, "analytic") {
			t.Fatalf("ParseEstimator(%q) error %q does not name the valid modes", bad, msg)
		}
	}
}

// TestEstimatorModesDeterministicAcrossWorkers: the analytic estimate
// and its Monte-Carlo fallback are each bit-identical across repeated
// calls on fresh and reused simulators, and the deprecated WithWorkers
// option changes neither.
func TestEstimatorModesDeterministicAcrossWorkers(t *testing.T) {
	for _, est := range estimators {
		ref := stochasticSim(t, 40, 42)
		for _, plan := range testPlans(ref) {
			want, err := est.estimate(ref, plan)
			if err != nil {
				t.Fatal(err)
			}
			if want.JCTStd == 0 {
				t.Fatalf("%s plan %v: degenerate estimate, test is vacuous", est.name, plan)
			}
			for _, workers := range []int{1, 2, 8} {
				sm := stochasticSim(t, 40, 42, WithWorkers(workers))
				for run := 0; run < 2; run++ {
					got, err := est.estimate(sm, plan)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s plan %v workers=%d run=%d: %+v != %+v", est.name, plan, workers, run, got, want)
					}
				}
			}
		}
	}
}

// TestEstimatorsAgreeExactlyUnderDeterministicLatencies: with point-mass
// latencies everywhere no draw carries randomness to diverge on, so the
// Monte-Carlo estimate must return Algorithm 1's estimates and
// breakdowns over the full DAG, up to the float round-off of zero-based
// versus absolute stage times, under both billing models and for all
// plan shapes (static, shrinking, queued waves).
func TestEstimatorsAgreeExactlyUnderDeterministicLatencies(t *testing.T) {
	const rel = 1e-12
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		seg := deterministicSim(t, 5, billing)
		for _, plan := range testPlans(seg) {
			se, err := seg.EstimateMC(plan)
			if err != nil {
				t.Fatal(err)
			}
			fe := algorithm1Estimate(t, seg, plan)
			if !near(se.JCT, fe.JCT, rel) || !near(se.Cost, fe.Cost, rel) || se.JCTStd != 0 || fe.JCTStd != 0 {
				t.Fatalf("billing %v plan %v: segment %+v != Algorithm 1 %+v", billing, plan, se, fe)
			}
			if se.JCT <= 0 || se.Cost <= 0 {
				t.Fatalf("billing %v plan %v: degenerate estimate %+v", billing, plan, se)
			}
			sb, err := seg.BreakdownMC(plan)
			if err != nil {
				t.Fatal(err)
			}
			fb := algorithm1Breakdown(t, seg, plan)
			for i := range sb {
				a, b := sb[i], fb[i]
				if a.Stage != b.Stage || a.Trials != b.Trials || a.GPUsPerTrial != b.GPUsPerTrial || a.Instances != b.Instances ||
					!near(a.Duration, b.Duration, rel) || !near(a.Cost, b.Cost, rel) {
					t.Fatalf("billing %v plan %v stage %d: segment %+v != Algorithm 1 %+v", billing, plan, i, a, b)
				}
			}
		}
	}
}

// TestEstimatorsAgreeToMonteCarloTolerance: under stochastic latencies
// the segment estimator and Algorithm 1 over the full DAG draw different
// streams, so they are distinct unbiased estimators of the same
// quantities; at a large sample count their means must agree to a few
// standard errors.
func TestEstimatorsAgreeToMonteCarloTolerance(t *testing.T) {
	const samples = 400
	seg := stochasticSim(t, samples, 9)
	for _, plan := range testPlans(seg) {
		se, err := seg.EstimateMC(plan)
		if err != nil {
			t.Fatal(err)
		}
		fe := algorithm1Estimate(t, seg, plan)
		// 5 standard errors of the larger spread, plus a small absolute
		// floor for near-deterministic components.
		jctTol := 5*math.Max(se.JCTStd, fe.JCTStd)/math.Sqrt(samples) + 1e-9
		costTol := 5*math.Max(se.CostStd, fe.CostStd)/math.Sqrt(samples) + 1e-9
		if d := math.Abs(se.JCT - fe.JCT); d > jctTol {
			t.Fatalf("plan %v: JCT means differ by %v (> %v): segment %v full %v", plan, d, jctTol, se.JCT, fe.JCT)
		}
		if d := math.Abs(se.Cost - fe.Cost); d > costTol {
			t.Fatalf("plan %v: cost means differ by %v (> %v): segment %v full %v", plan, d, costTol, se.Cost, fe.Cost)
		}
	}
}

// TestSegmentEstimatesPureAcrossCacheState: a Monte-Carlo estimate must
// not depend on what the segment table happens to hold — evaluating many
// other plans (sharing and adding segments) between two estimates of the same
// plan must not change a bit, and a cold simulator must agree with a
// warm one.
func TestSegmentEstimatesPureAcrossCacheState(t *testing.T) {
	warm := stochasticSim(t, 30, 13)
	plan := testPlans(warm)[1]
	want, err := warm.EstimateMC(plan)
	if err != nil {
		t.Fatal(err)
	}
	stages := warm.Spec().NumStages()
	for g := 1; g <= 32; g++ {
		if _, err := warm.EstimateMC(Uniform(g, stages)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := warm.EstimateMC(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("estimate changed with cache state: %+v != %+v", got, want)
	}
	cold := stochasticSim(t, 30, 13)
	cgot, err := cold.EstimateMC(plan)
	if err != nil {
		t.Fatal(err)
	}
	if cgot != want {
		t.Fatalf("cold estimate %+v != warm %+v", cgot, want)
	}
}

// TestPlanKeyCollisionFree: the plan memo answers a plan only with its
// own entry, even when every plan hashes alike: entries that share a
// hash chain, and a lookup compares canonical allocations, so plans
// that differ in any allocation or in stage count never share an
// estimate.
func TestPlanKeyCollisionFree(t *testing.T) {
	plans := []Plan{
		NewPlan(1),
		NewPlan(1, 1),
		NewPlan(16, 8),
		NewPlan(8, 16),
		NewPlan(16, 8, 4),
		NewPlan(16, 8, 5),
		NewPlan(257, 8, 4), // multi-byte values must not collide with permutations
		NewPlan(1, 2, 8, 4),
		NewPlan(1, 2, 8, 5),
		Uniform(64, 4),
	}
	key := func(p Plan) []int32 {
		var k []int32
		for _, a := range p.Alloc {
			k = append(k, int32(a))
		}
		return k
	}
	for _, hash := range []func([]int32) uint64{planHash, func([]int32) uint64 { return 7 }} {
		tab := new(segTable)
		for i, p := range plans {
			tab.storePlan(hash(key(p)), key(p), Estimate{JCT: float64(i)})
		}
		for i, p := range plans {
			if est, ok := tab.plan(hash(key(p)), key(p)); !ok || est.JCT != float64(i) {
				t.Fatalf("plan %v (#%d) reads entry %v/%v", p, i, est.JCT, ok)
			}
		}
		if _, ok := tab.plan(hash(key(NewPlan(16, 8, 6))), key(NewPlan(16, 8, 6))); ok {
			t.Fatal("a plan never stored has an entry")
		}
		tab.storePlan(hash(key(plans[2])), key(plans[2]), Estimate{JCT: -1})
		if est, _ := tab.plan(hash(key(plans[2])), key(plans[2])); est.JCT != 2 {
			t.Fatalf("a second store replaced the first entry: JCT %v", est.JCT)
		}
		tab.reset()
		if tab.plans.n != 0 || len(tab.entries) != 0 || len(tab.allocs) != 0 {
			t.Fatalf("reset left %d hashes, %d entries, %d allocations", tab.plans.n, len(tab.entries), len(tab.allocs))
		}
	}
}

// TestPriceScheduleZeroAlloc pins the steady-state allocation count of
// the billing replay to zero under both billing models: with a warm
// cohort stack, pricing a sample must not allocate.
func TestPriceScheduleZeroAlloc(t *testing.T) {
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		sm := deterministicSim(t, 8, billing)
		plan := testPlans(sm)[1]
		var cp compiledPlan
		if err := sm.compile(plan, &cp); err != nil {
			t.Fatal(err)
		}
		sm.sampleVectors(&cp)
		var stack []cohort
		_, _, stack = sm.priceSchedule(&cp, 0, stack) // warm the buffer
		allocs := testing.AllocsPerRun(100, func() {
			_, _, stack = sm.priceSchedule(&cp, 1, stack)
		})
		if allocs != 0 {
			t.Fatalf("billing %v: priceSchedule allocates %v per sample, want 0", billing, allocs)
		}
	}
}

// TestGraphSampleZeroAlloc pins the reference sampler: with a warm
// timings buffer, Graph.SampleInto over a full execution DAG allocates
// nothing per draw.
func TestGraphSampleZeroAlloc(t *testing.T) {
	sm := stochasticSim(t, 8, 3)
	b, err := buildFullDAG(sm, testPlans(sm)[1])
	if err != nil {
		t.Fatal(err)
	}
	g := b.graph
	rng := stats.NewRNG(5)
	buf, _ := g.SampleInto(rng, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = g.SampleInto(rng, buf)
	})
	if allocs != 0 {
		t.Fatalf("Graph.SampleInto allocates %v per draw, want 0", allocs)
	}
}

// tableCounts returns the size of sm's segment table and how many of its
// segments have their sample vector and analytic moments filled.
func tableCounts(sm *Simulator) (segs, samples, moms int) {
	if sm.tab == nil {
		return 0, 0, 0
	}
	for i := 0; i < sm.tab.segs.chunksUsed(); i++ {
		for _, sg := range sm.tab.segs.usedOf(i) {
			if sg.samples != 0 {
				samples++
			}
			if sg.mom != 0 {
				moms++
			}
		}
	}
	return sm.tab.index.n, samples, moms
}

// TestSegmentCacheReusesAcrossPlans: two Monte-Carlo estimates of plans
// sharing a stage tuple must consult the profile only once for that
// tuple — the segment table is what makes the fallback incremental.
func TestSegmentCacheReusesAcrossPlans(t *testing.T) {
	sm := stochasticSim(t, 10, 21)
	stages := sm.Spec().NumStages()
	if _, err := sm.EstimateMC(Uniform(16, stages)); err != nil {
		t.Fatal(err)
	}
	segsBefore, samplesBefore, _ := tableCounts(sm)
	// Decrement only the final stage: every earlier (stage, alloc, prev)
	// tuple is unchanged, so exactly one new segment may be built.
	alloc := Uniform(16, stages).Alloc
	alloc[stages-1] = 8
	if _, err := sm.EstimateMC(Plan{Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	segs, samples, _ := tableCounts(sm)
	if segs != segsBefore+1 {
		t.Fatalf("segment table grew from %d to %d, want exactly one new segment", segsBefore, segs)
	}
	if samples != samplesBefore+1 {
		t.Fatalf("filled sample vectors grew from %d to %d, want exactly one new vector", samplesBefore, samples)
	}
}

// TestCompileSnapshotsFills: compile resolves a plan and snapshots each
// segment's sample vector and moments as far as they are filled. A plan no estimate has touched snapshots
// none; once it has been estimated both analytically and by Monte-Carlo,
// a compile carries every stage's fill, so neither sampleVectors nor
// AnalyticEval.Estimate goes back to the table for it.
func TestCompileSnapshotsFills(t *testing.T) {
	for _, p := range testPlans(stochasticSim(t, 20, 31)) {
		sm := stochasticSim(t, 20, 31)
		var cp compiledPlan
		if err := sm.compile(p, &cp); err != nil {
			t.Fatal(err)
		}
		for i := range cp.segs {
			if cp.vecs[i] != 0 || cp.moms[i] != 0 {
				t.Fatalf("plan %v stage %d: cold compile snapshot a fill", p, i)
			}
		}
		e := sm.NewAnalyticEval()
		if _, _, err := e.Estimate(p); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.EstimateMC(p); err != nil {
			t.Fatal(err)
		}
		if err := sm.compile(p, &cp); err != nil {
			t.Fatal(err)
		}
		for i := range cp.segs {
			sg := cp.seg(i)
			if cp.vecs[i] != sg.samples || sg.samples == 0 || cp.moms[i] != sg.mom || sg.mom == 0 {
				t.Fatalf("plan %v stage %d: warm compile snapshot vector %d moments %d, table holds %d and %d",
					p, i, cp.vecs[i], cp.moms[i], sg.samples, sg.mom)
			}
		}
	}
}
