package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

// testCloud returns a cloud profile with deterministic overheads for exact
// assertions.
func testCloud(billing cloud.BillingModel, queue, initLat float64) cloud.Profile {
	cp := cloud.PaperProfile(0)
	cp.Pricing.Billing = billing
	cp.Pricing.MinChargeSeconds = 0
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: queue},
		InitLatency: stats.Deterministic{Value: initLat},
	}
	return cp
}

// constProfile has a fixed per-iteration latency regardless of allocation —
// convenient for exact-schedule tests.
type constProfile struct{ v float64 }

func (c constProfile) IterDist(int) stats.Dist { return stats.Deterministic{Value: c.v} }

// linearProfile scales perfectly: latency = base/gpus.
type linearProfile struct{ base float64 }

func (l linearProfile) IterDist(g int) stats.Dist {
	return stats.Deterministic{Value: l.base / float64(g)}
}

func mustSim(t *testing.T, s *spec.ExperimentSpec, p TrainProfile, cp cloud.Profile) *Simulator {
	t.Helper()
	sm, err := New(s, p, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func TestNewValidation(t *testing.T) {
	good := spec.MustSHA(8, 1, 4, 2)
	cp := cloud.PaperProfile(0)
	if _, err := New(good, nil, cp, 0, nil); err == nil {
		t.Error("nil profile accepted")
	}
	badCP := cp
	badCP.DatasetGB = -1
	if _, err := New(good, constProfile{1}, badCP, 0, nil); err == nil {
		t.Error("bad cloud profile accepted")
	}
	if _, err := New(good, constProfile{1}, cp, 0, nil); err != nil {
		t.Errorf("valid inputs rejected: %v", err)
	}
}

func TestPlanHelpers(t *testing.T) {
	p := NewPlan(8, 4, 2)
	if len(p.Alloc) != 3 || p.Max() != 8 || p.IsStatic() {
		t.Errorf("plan helpers wrong: %+v", p)
	}
	if Uniform(4, 3).IsStatic() != true {
		t.Error("uniform plan not static")
	}
	q := p.Clone()
	q.Alloc[0] = 99
	if p.Alloc[0] != 8 {
		t.Error("Clone shares storage")
	}
	if !p.Equal(NewPlan(8, 4, 2)) || p.Equal(NewPlan(8, 4)) || p.Equal(NewPlan(8, 4, 3)) {
		t.Error("Equal wrong")
	}
	if p.String() != "(8, 4, 2)" {
		t.Errorf("String = %q", p.String())
	}
	for _, q := range []Plan{{}, NewPlan(1), NewPlan(0, -3, 1<<40)} {
		parts := make([]string, len(q.Alloc))
		for i, a := range q.Alloc {
			parts[i] = fmt.Sprint(a)
		}
		if got, want := string(q.AppendString([]byte("x"))), "x("+strings.Join(parts, ", ")+")"; got != want {
			t.Errorf("AppendString = %q, want %q", got, want)
		}
	}
}

func TestPlanSuffixSplice(t *testing.T) {
	p := NewPlan(8, 4, 2, 1)
	s := p.Suffix(2)
	if !s.Equal(NewPlan(2, 1)) {
		t.Errorf("Suffix(2) = %v", s)
	}
	s.Alloc[0] = 99
	if p.Alloc[2] != 2 {
		t.Error("Suffix shares storage")
	}
	q := p.Splice(2, NewPlan(16, 16))
	if !q.Equal(NewPlan(8, 4, 16, 16)) {
		t.Errorf("Splice = %v", q)
	}
	if !p.Equal(NewPlan(8, 4, 2, 1)) {
		t.Error("Splice mutated the receiver")
	}
	if !p.Splice(0, NewPlan(1, 1, 1, 1)).Equal(NewPlan(1, 1, 1, 1)) {
		t.Error("full-plan splice wrong")
	}
	for _, f := range []func(){
		func() { p.Suffix(-1) },
		func() { p.Suffix(4) },
		func() { p.Splice(1, NewPlan(9)) },
		func() { p.Splice(5, NewPlan()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range suffix/splice did not panic")
				}
			}()
			f()
		}()
	}
}

// normalProfile has a fixed Normal latency regardless of allocation.
type normalProfile struct{ mu, sigma float64 }

func (p normalProfile) IterDist(int) stats.Dist { return stats.Normal{Mu: p.mu, Sigma: p.sigma} }

func TestScaledTrainProfile(t *testing.T) {
	det := ScaledTrainProfile{Base: constProfile{10}, Factor: 2}
	d, ok := det.IterDist(4).(stats.Deterministic)
	if !ok || d.Value != 20 {
		t.Errorf("scaled deterministic = %#v, want Deterministic{20}", det.IterDist(4))
	}
	norm := ScaledTrainProfile{Base: normalProfile{mu: 10, sigma: 2}, Factor: 3}
	n, ok := norm.IterDist(1).(stats.Normal)
	if !ok || n.Mu != 30 || n.Sigma != 6 {
		t.Errorf("scaled normal = %#v, want Normal{30, 6}", norm.IterDist(1))
	}
}

func TestPlanValidate(t *testing.T) {
	if err := NewPlan(1, 2).Validate(3); err == nil {
		t.Error("wrong stage count accepted")
	}
	if err := NewPlan(1, 0).Validate(2); err == nil {
		t.Error("zero allocation accepted")
	}
	if err := NewPlan(1, 2).Validate(2); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := NewPlan(1, math.MaxInt32).Validate(2); err != nil {
		t.Errorf("allocation of math.MaxInt32 rejected: %v", err)
	}
}

// TestOversizedAllocRejected: an allocation above math.MaxInt32 does not
// fit the 32-bit segment and plan keys. Truncated, 2^32+16 GPUs would
// alias 16 GPUs: the same segments, the same estimate and the same
// canonical plan key. Validation, and with it Estimate, its memo-free
// estimate, Breakdown and the Monte-Carlo oracle, must reject it.
func TestOversizedAllocRejected(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int cannot exceed math.MaxInt32 on this target")
	}
	big := math.MaxInt32
	big++ // a variable, so the test still compiles where int is 32 bits
	if err := NewPlan(1, big).Validate(2); err == nil || !strings.Contains(err.Error(), "stage 1 allocated 2147483648 GPUs") {
		t.Fatalf("Validate(2^31) = %v, want the stage-1 allocation error", err)
	}
	sm := stochasticSim(t)
	plan := Plan{Alloc: []int{big<<1 + 16, 8, 4, 2}}
	for _, est := range estimators {
		if got, err := est.on(sm, 4, 31)(plan); err == nil {
			t.Fatalf("%s(%v) = %+v, want a validation error", est.name, plan, got)
		}
	}
	if _, err := sm.Breakdown(plan); err == nil {
		t.Fatalf("Breakdown(%v) accepted the plan", plan)
	}
	if _, err := sm.estimate(plan); err == nil {
		t.Fatalf("estimate(%v) accepted the plan", plan)
	}
}

func TestGPUsPerTrial(t *testing.T) {
	cases := []struct{ alloc, trials, want int }{
		{8, 4, 2}, {4, 4, 1}, {2, 4, 1}, {9, 4, 2}, {16, 2, 8},
	}
	for _, c := range cases {
		if got := GPUsPerTrial(c.alloc, c.trials); got != c.want {
			t.Errorf("GPUsPerTrial(%d,%d) = %d, want %d", c.alloc, c.trials, got, c.want)
		}
	}
}

func TestBuildDAGStructure(t *testing.T) {
	s := spec.Empty().AddStage(4, 10).AddStage(2, 20)
	sm := mustSim(t, s, constProfile{1}, testCloud(cloud.PerInstance, 5, 15))
	g := fullDAGChecked(t, sm, NewPlan(4, 2))
	var counts [4]int
	for _, n := range g.Nodes() {
		counts[n.Kind]++
	}
	// 4 GPUs on p3.8xlarge = 1 instance: one SCALE, one INIT for stage 0;
	// stage 1 shrinks so no more scaling. 4+2 TRAIN nodes, 2 SYNCs.
	if counts[Scale] != 1 || counts[InitInstance] != 1 {
		t.Errorf("scale/init = %d/%d, want 1/1", counts[Scale], counts[InitInstance])
	}
	if counts[Train] != 6 {
		t.Errorf("train = %d, want 6", counts[Train])
	}
	if counts[Sync] != 2 {
		t.Errorf("sync = %d, want 2", counts[Sync])
	}
}

func TestBuildDAGScaleUpMidJob(t *testing.T) {
	// Growing allocation forces a second SCALE with the right number of
	// INIT nodes (p3.8xlarge: 4 GPUs per instance).
	s := spec.Empty().AddStage(2, 1).AddStage(2, 1)
	sm := mustSim(t, s, constProfile{1}, testCloud(cloud.PerInstance, 0, 0))
	g := fullDAGChecked(t, sm, NewPlan(4, 16)) // 1 instance -> 4 instances
	scales, inits := 0, 0
	for _, n := range g.Nodes() {
		switch n.Kind {
		case Scale:
			scales++
		case InitInstance:
			inits++
		}
	}
	if scales != 2 {
		t.Errorf("scales = %d, want 2", scales)
	}
	if inits != 4 { // 1 + 3
		t.Errorf("inits = %d, want 4", inits)
	}
}

func TestEstimateJCTExact(t *testing.T) {
	// Deterministic everything: JCT must be exact.
	// Stage 0: 4 trials, 10 iters, 4 GPUs -> 1 GPU each, 1 s/iter = 10 s.
	// Stage 1: 2 trials, 20 iters, 4 GPUs -> 2 GPUs each, still 1 s/iter
	// under constProfile = 20 s. Plus queue 5 + init 15 up front.
	s := spec.Empty().AddStage(4, 10).AddStage(2, 20)
	sm := mustSim(t, s, constProfile{1}, testCloud(cloud.PerInstance, 5, 15))
	est, err := sm.Estimate(NewPlan(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 + 15 + 10 + 20
	if math.Abs(est.JCT-want) > 1e-9 {
		t.Fatalf("JCT = %v, want %v", est.JCT, want)
	}
	if est.JCTStd != 0 {
		t.Fatalf("JCTStd = %v, want 0 for deterministic job", est.JCTStd)
	}
}

func TestEstimateSerialQueueing(t *testing.T) {
	// 4 trials on 2 GPUs: two waves of serial execution.
	s := spec.Empty().AddStage(4, 10)
	sm := mustSim(t, s, constProfile{1}, testCloud(cloud.PerInstance, 0, 0))
	est, err := sm.Estimate(NewPlan(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.JCT-20) > 1e-9 {
		t.Fatalf("JCT = %v, want 20 (two waves)", est.JCT)
	}
}

func TestEstimatePerInstanceCostExact(t *testing.T) {
	// One p3.8xlarge (4 GPUs) for the whole 30 s job, zero overheads.
	s := spec.Empty().AddStage(4, 10).AddStage(2, 20)
	cp := testCloud(cloud.PerInstance, 0, 0)
	sm := mustSim(t, s, constProfile{1}, cp)
	est, err := sm.Estimate(NewPlan(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := 30.0 / 3600 * cp.Instance.OnDemandPerHour
	if math.Abs(est.Cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", est.Cost, want)
	}
}

func TestEstimatePerInstanceShrinkBillsLIFO(t *testing.T) {
	// Stage 0 uses 8 GPUs (2 instances) for 10 s, stage 1 uses 4 GPUs
	// (1 instance) for 20 s: cost = 2*10s + 1*20s of instance time.
	s := spec.Empty().AddStage(8, 10).AddStage(1, 20)
	cp := testCloud(cloud.PerInstance, 0, 0)
	sm := mustSim(t, s, linearProfile{1}, cp)
	// Stage 0: 8 trials at 1 GPU, 10 iters, 1 s/iter = 10 s.
	// Stage 1: 1 trial at 4 GPUs, 20 iters at 0.25 s = 5 s.
	est, err := sm.Estimate(NewPlan(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantJCT := 15.0
	if math.Abs(est.JCT-wantJCT) > 1e-9 {
		t.Fatalf("JCT = %v, want %v", est.JCT, wantJCT)
	}
	wantCost := (2*10.0 + 1*5.0) / 3600 * cp.Instance.OnDemandPerHour
	if math.Abs(est.Cost-wantCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v", est.Cost, wantCost)
	}
}

func TestEstimatePerFunctionCheaperUnderIdle(t *testing.T) {
	// With heavy stragglers, per-function billing must be cheaper than
	// per-instance (Figure 9's mechanism).
	m := model.ResNet50()
	m.IterNoiseStd = 2.0
	prof := ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: 4}
	s := spec.MustSHA(16, 4, 32, 2)

	perInst := testCloud(cloud.PerInstance, 0, 0)
	perFn := testCloud(cloud.PerFunction, 0, 0)
	plan := Uniform(16, s.NumStages())

	smI := mustSim(t, s, prof, perInst)
	smF := mustSim(t, s, prof, perFn)
	estI, err := smI.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	estF, err := smF.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if estF.Cost >= estI.Cost {
		t.Fatalf("per-function %v not cheaper than per-instance %v", estF.Cost, estI.Cost)
	}
}

func TestEstimateDataIngress(t *testing.T) {
	s := spec.Empty().AddStage(4, 10)
	cp := testCloud(cloud.PerInstance, 0, 0)
	cp.Pricing.DataPricePerGB = 0.01
	cp.DatasetGB = 150
	sm := mustSim(t, s, constProfile{1}, cp)
	est, err := sm.Estimate(NewPlan(4)) // 1 instance
	if err != nil {
		t.Fatal(err)
	}
	computeOnly := 10.0 / 3600 * cp.Instance.OnDemandPerHour
	wantData := 1.5
	if math.Abs(est.Cost-(computeOnly+wantData)) > 1e-9 {
		t.Fatalf("cost = %v, want %v", est.Cost, computeOnly+wantData)
	}
}

func TestEstimateMinimumCharge(t *testing.T) {
	// A 10-second job on one instance is billed 60 s.
	s := spec.Empty().AddStage(4, 10)
	cp := testCloud(cloud.PerInstance, 0, 0)
	cp.Pricing.MinChargeSeconds = 60
	sm := mustSim(t, s, constProfile{1}, cp)
	est, err := sm.Estimate(NewPlan(4))
	if err != nil {
		t.Fatal(err)
	}
	want := 60.0 / 3600 * cp.Instance.OnDemandPerHour
	if math.Abs(est.Cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", est.Cost, want)
	}
}

func TestEstimateRejectsBadPlan(t *testing.T) {
	s := spec.Empty().AddStage(4, 10)
	sm := mustSim(t, s, constProfile{1}, testCloud(cloud.PerInstance, 0, 0))
	if _, err := sm.Estimate(NewPlan(4, 4)); err == nil {
		t.Error("plan with wrong stage count accepted")
	}
	if _, err := sm.Estimate(NewPlan(0)); err == nil {
		t.Error("plan with zero alloc accepted")
	}
}

func TestElasticCheaperThanStaticWhenSublinear(t *testing.T) {
	// The paper's core claim: for a sub-linearly scaling model and a
	// front-loaded job, shrinking the cluster as trials are pruned is
	// cheaper than holding the static cluster, at comparable JCT.
	prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	s := spec.MustSHA(64, 4, 508, 2)
	cp := testCloud(cloud.PerInstance, 0, 0)
	sm := mustSim(t, s, prof, cp)

	static := Uniform(64, s.NumStages())
	alloc := make([]int, s.NumStages())
	for i := 0; i < s.NumStages(); i++ {
		a := s.Stage(i).Trials // one GPU per trial
		if a > 64 {
			a = 64
		}
		alloc[i] = a
	}
	elasticPlan := Plan{Alloc: alloc}

	estStatic, err := sm.Estimate(static)
	if err != nil {
		t.Fatal(err)
	}
	estElastic, err := sm.Estimate(elasticPlan)
	if err != nil {
		t.Fatal(err)
	}
	if estElastic.Cost >= estStatic.Cost {
		t.Fatalf("elastic %v not cheaper than static %v", estElastic.Cost, estStatic.Cost)
	}
}

func TestStaticClusterJCTMonotone(t *testing.T) {
	prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	s := spec.MustSHA(16, 4, 32, 2)
	sm := mustSim(t, s, prof, testCloud(cloud.PerInstance, 0, 0))
	prev := math.Inf(1)
	for _, g := range []int{1, 2, 4, 8, 16, 32} {
		jct := sm.StaticClusterJCT(g)
		if jct > prev+1e-9 {
			t.Errorf("JCT grew with more GPUs at %d: %v > %v", g, jct, prev)
		}
		prev = jct
	}
}

func TestSumItersCollapse(t *testing.T) {
	r := stats.NewRNG(1)
	// Deterministic collapses exactly.
	d := sumIters(stats.Deterministic{Value: 2}, 10)
	if v := d.Sample(r); v != 20 {
		t.Errorf("det sum sample %v, want 20", v)
	}
	// Normal collapses analytically: mean n*mu, std sqrt(n)*sigma.
	n := sumIters(stats.Normal{Mu: 3, Sigma: 1}, 100).(stats.Normal)
	if n.Mu != 300 || math.Abs(n.Sigma-10) > 1e-12 {
		t.Errorf("normal sum = %+v", n)
	}
	// Other distributions fall back to summing draws.
	e := sumIters(stats.Exponential{MeanValue: 1}, 50)
	if math.Abs(e.Mean()-50) > 1e-9 {
		t.Errorf("exp sum mean %v", e.Mean())
	}
	var total float64
	for i := 0; i < 2000; i++ {
		total += e.Sample(r)
	}
	if got := total / 2000; math.Abs(got-50) > 2 {
		t.Errorf("exp sum sample mean %v, want ~50", got)
	}
}

func TestModelTrainProfileUsesNodeSpread(t *testing.T) {
	m := model.ResNet50()
	m.IterNoiseStd = 0
	within := ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: 8}
	across := ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: 4}
	// 8 GPUs: single node at 8/node, two nodes at 4/node.
	if within.IterDist(8).Mean() >= across.IterDist(8).Mean() {
		t.Error("crossing nodes did not slow iteration")
	}
}

func TestMeasuredTrainProfile(t *testing.T) {
	sc, err := model.NewInterpolatedScaling([]int{1, 2, 4}, []float64{1, 1.9, 3.6})
	if err != nil {
		t.Fatal(err)
	}
	p := MeasuredTrainProfile{BaseMean: 4, BaseStd: 0.4, Scaling: sc}
	d := p.IterDist(4)
	if math.Abs(d.Mean()-4.0/3.6) > 1e-9 {
		t.Errorf("measured mean %v", d.Mean())
	}
	p.BaseStd = 0
	if _, ok := p.IterDist(2).(stats.Deterministic); !ok {
		t.Error("zero-std measured profile not deterministic")
	}
}

// lognormalProfile is a TrainProfile defined outside the sim package's
// own types, so IterMean takes its IterDist fallback.
type lognormalProfile struct{ mu, sigma float64 }

func (p lognormalProfile) IterDist(gpus int) stats.Dist {
	return stats.LogNormal{Mu: p.mu - math.Log(float64(gpus)), Sigma: p.sigma}
}

// TestIterMeanMatchesIterDist holds IterMean to IterDist(g).Mean() bit
// for bit for every profile type, noise-free and noisy, a measured
// profile by pointer, nested Scaled profiles and a foreign type included.
func TestIterMeanMatchesIterDist(t *testing.T) {
	sc, err := model.NewInterpolatedScaling([]int{1, 2, 4, 16}, []float64{1, 1.9, 3.6, 11.3})
	if err != nil {
		t.Fatal(err)
	}
	quiet := model.ResNet101()
	quiet.IterNoiseStd = 0
	bases := map[string]TrainProfile{
		"model-noisy":    ModelTrainProfile{Model: model.ResNet101(), Batch: 512, GPUsPerNode: 4},
		"model-quiet":    ModelTrainProfile{Model: quiet, Batch: 384, GPUsPerNode: 8},
		"measured-noisy": MeasuredTrainProfile{BaseMean: 4, BaseStd: 0.4, Scaling: sc},
		"measured-quiet": MeasuredTrainProfile{BaseMean: 4.3, Scaling: sc},
		"measured-ptr":   &MeasuredTrainProfile{BaseMean: 4, BaseStd: 0.4, Scaling: sc},
		"foreign":        lognormalProfile{mu: 0.7, sigma: 0.3},
	}
	profiles := map[string]TrainProfile{}
	for name, p := range bases {
		profiles[name] = p
		profiles[name+"/scaled"] = ScaledTrainProfile{Base: p, Factor: 1.37}
		profiles[name+"/scaled/scaled"] = ScaledTrainProfile{Base: ScaledTrainProfile{Base: p, Factor: 0.71}, Factor: 1.13}
	}
	for name, p := range profiles {
		for g := 1; g <= 64; g++ {
			got, want := IterMean(p, g), p.IterDist(g).Mean()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s at %d GPUs: IterMean %v, IterDist mean %v", name, g, got, want)
			}
		}
	}
}

// Property: for any SHA job and any feasible static allocation, estimated
// cost and JCT are positive and finite, and the DAG has one SYNC per
// stage.
func TestQuickEstimateSane(t *testing.T) {
	prof := ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw%32) + 1
		gpus := int(gRaw%32) + 1
		s, err := spec.SHA(spec.SHAParams{N: n, R: 2, MaxR: 16, Eta: 2})
		if err != nil {
			return false
		}
		sm, err := New(s, prof, testCloud(cloud.PerInstance, 1, 2), 0, nil)
		if err != nil {
			return false
		}
		est, err := sm.Estimate(Uniform(gpus, s.NumStages()))
		if err != nil {
			return false
		}
		if !(est.JCT > 0) || !(est.Cost > 0) || math.IsInf(est.JCT, 0) || math.IsInf(est.Cost, 0) {
			return false
		}
		b, err := buildFullDAG(sm, Uniform(gpus, s.NumStages()))
		if err != nil {
			return false
		}
		syncs := 0
		for _, nd := range b.graph.Nodes() {
			if nd.Kind == Sync {
				syncs++
			}
		}
		return syncs == s.NumStages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("16, 10, 12, 4")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(NewPlan(16, 10, 12, 4)) {
		t.Fatalf("parsed %v", p)
	}
	// Trailing commas and whitespace tolerated.
	p, err = ParsePlan(" 8,4, ")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(NewPlan(8, 4)) {
		t.Fatalf("parsed %v", p)
	}
	for _, bad := range []string{"", "a,b", "4,0", "-1", ",,"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}
