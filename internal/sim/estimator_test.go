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
// stochasticSim returns.
func initStochasticSim(t testing.TB, sm *Simulator) {
	t.Helper()
	if err := sm.Init(stochasticJob()); err != nil {
		t.Fatal(err)
	}
}

// deterministicSim returns a simulator whose every latency source is a
// point mass: measured profile with zero straggler variance and constant
// provisioning overheads. No draw carries randomness, so the analytic
// estimate, the segment Monte-Carlo oracle and Algorithm 1 over the full
// DAG must agree exactly.
func deterministicSim(t testing.TB, billing cloud.BillingModel) *Simulator {
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
	sm, err := New(s, prof, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// estimator is one way a test reaches an estimate: the public Estimate
// (analytic, memoized) or, when mc is set, the Monte-Carlo oracle.
type estimator struct {
	name string
	mc   bool
}

// estimators are both estimators.
var estimators = []estimator{{"Estimate", false}, {"Monte-Carlo", true}}

// on returns e's estimate of sm's plans; the oracle draws samples draws
// per segment from seed's streams.
func (e estimator) on(sm *Simulator, samples int, seed uint64) func(Plan) (Estimate, error) {
	if e.mc {
		return newMonteCarlo(sm, samples, stats.NewRNG(seed)).estimate
	}
	return sm.Estimate
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
// and the Monte-Carlo oracle are each bit-identical across repeated
// calls on fresh and reused simulators, and the deprecated WithWorkers
// option changes neither.
func TestEstimatorModesDeterministicAcrossWorkers(t *testing.T) {
	for _, est := range estimators {
		ref := stochasticSim(t)
		for _, plan := range testPlans(ref) {
			want, err := est.on(ref, 40, 42)(plan)
			if err != nil {
				t.Fatal(err)
			}
			if want.JCTStd == 0 {
				t.Fatalf("%s plan %v: degenerate estimate, test is vacuous", est.name, plan)
			}
			for _, workers := range []int{1, 2, 8} {
				estimate := est.on(stochasticSim(t, WithWorkers(workers)), 40, 42)
				for run := 0; run < 2; run++ {
					got, err := estimate(plan)
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
// segment Monte-Carlo oracle must return Algorithm 1's estimates and
// breakdowns over the full DAG, up to the float round-off of zero-based
// versus absolute stage times, under both billing models and for all
// plan shapes (static, shrinking, queued waves).
func TestEstimatorsAgreeExactlyUnderDeterministicLatencies(t *testing.T) {
	const rel = 1e-12
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		seg := newMonteCarlo(deterministicSim(t, billing), 5, stats.NewRNG(77))
		for _, plan := range testPlans(seg.s) {
			se, err := seg.estimate(plan)
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
			sb, err := seg.breakdownOf(plan)
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
// the segment oracle and Algorithm 1 over the full DAG draw different
// streams, so they are distinct unbiased estimators of the same
// quantities; at a large sample count their means must agree to a few
// standard errors.
func TestEstimatorsAgreeToMonteCarloTolerance(t *testing.T) {
	const samples = 400
	seg := stochasticMC(t, samples, 9)
	for _, plan := range testPlans(seg.s) {
		se, err := seg.estimate(plan)
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
// not depend on what the segment table and the oracle's vectors happen
// to hold — evaluating many other plans (sharing and adding segments)
// between two estimates of the same plan must not change a bit, and a
// cold oracle must agree with a warm one.
func TestSegmentEstimatesPureAcrossCacheState(t *testing.T) {
	warm := stochasticMC(t, 30, 13)
	plan := testPlans(warm.s)[1]
	want, err := warm.estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	stages := warm.s.Spec().NumStages()
	for g := 1; g <= 32; g++ {
		if _, err := warm.estimate(Uniform(g, stages)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := warm.estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("estimate changed with cache state: %+v != %+v", got, want)
	}
	cold := stochasticMC(t, 30, 13)
	cgot, err := cold.estimate(plan)
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
// the oracle's billing replay to zero under both billing models: with a
// warm cohort stack, pricing a sample must not allocate.
func TestPriceScheduleZeroAlloc(t *testing.T) {
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		sm := deterministicSim(t, billing)
		mc := newMonteCarlo(sm, 8, stats.NewRNG(77))
		if err := mc.compile(testPlans(sm)[1]); err != nil {
			t.Fatal(err)
		}
		var stack []cohort
		_, _, stack = sm.priceSchedule(&mc.cp, mc.rows, 0, stack) // warm the buffer
		allocs := testing.AllocsPerRun(100, func() {
			_, _, stack = sm.priceSchedule(&mc.cp, mc.rows, 1, stack)
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
	sm := stochasticSim(t)
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
// segments have their analytic moments filled.
func tableCounts(sm *Simulator) (segs, moms int) {
	if sm.tab == nil {
		return 0, 0
	}
	for i := 0; i < sm.tab.segs.chunksUsed(); i++ {
		for _, sg := range sm.tab.segs.usedOf(i) {
			if sg.mom != 0 {
				moms++
			}
		}
	}
	return sm.tab.index.n, moms
}

// TestSegmentCacheReusesAcrossPlans: two Monte-Carlo estimates of plans
// sharing a stage tuple must build and draw only one new segment — the
// segment table and the oracle's vectors are what make Algorithm 1
// incremental across a search's plans.
func TestSegmentCacheReusesAcrossPlans(t *testing.T) {
	mc := stochasticMC(t, 10, 21)
	stages := mc.s.Spec().NumStages()
	if _, err := mc.estimate(Uniform(16, stages)); err != nil {
		t.Fatal(err)
	}
	segsBefore, _ := tableCounts(mc.s)
	vecsBefore := len(mc.vecs)
	// Decrement only the final stage: every earlier (stage, alloc, prev)
	// tuple is unchanged, so exactly one new segment may be built.
	alloc := Uniform(16, stages).Alloc
	alloc[stages-1] = 8
	if _, err := mc.estimate(Plan{Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	if segs, _ := tableCounts(mc.s); segs != segsBefore+1 {
		t.Fatalf("segment table grew from %d to %d, want exactly one new segment", segsBefore, segs)
	}
	if vecs := len(mc.vecs); vecs != vecsBefore+1 {
		t.Fatalf("drawn sample vectors grew from %d to %d, want exactly one new vector", vecsBefore, vecs)
	}
}

// TestCompileSnapshotsFills: compile resolves a plan and snapshots each
// segment's moments as far as they are filled. A plan no estimate has
// touched snapshots none; once it has been estimated, a compile carries
// every stage's moments, so fill does not go back to the table for
// them.
func TestCompileSnapshotsFills(t *testing.T) {
	for _, p := range testPlans(stochasticSim(t)) {
		sm := stochasticSim(t)
		var cp compiledPlan
		if err := sm.compile(p, &cp); err != nil {
			t.Fatal(err)
		}
		for i := range cp.segs {
			if cp.moms[i] != 0 {
				t.Fatalf("plan %v stage %d: cold compile snapshot a fill", p, i)
			}
		}
		if _, err := sm.estimate(p); err != nil {
			t.Fatal(err)
		}
		if err := sm.compile(p, &cp); err != nil {
			t.Fatal(err)
		}
		for i := range cp.segs {
			if sg := cp.seg(i); cp.moms[i] != sg.mom || sg.mom == 0 {
				t.Fatalf("plan %v stage %d: warm compile snapshot moments %d, table holds %d", p, i, cp.moms[i], sg.mom)
			}
		}
	}
}
