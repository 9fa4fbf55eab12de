package executor

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/trial"
	"repro/internal/vclock"
)

// harness bundles the substrate for one run.
type harness struct {
	clock    *vclock.Clock
	provider *cloud.Provider
	cluster  *cluster.Manager
}

func newHarness(t testing.TB, billing cloud.BillingModel, queue, initLat float64, seed uint64) *harness {
	t.Helper()
	prof := testProfile(t, "p3.8xlarge", queue, initLat)
	prof.Pricing.Billing = billing
	return newHarnessProfile(t, prof, seed)
}

// testProfile returns a profile of instName workers on on-demand
// per-instance billing with no minimum charge, deterministic queue delay
// and init latency, no dataset, no faults and no restore.
func testProfile(t testing.TB, instName string, queue, initLat float64) cloud.Profile {
	t.Helper()
	it, err := cloud.DefaultCatalog().Lookup(instName)
	if err != nil {
		t.Fatal(err)
	}
	prof := cloud.Profile{
		Instance: it,
		Pricing:  cloud.DefaultPricing(),
		Overheads: cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: queue},
			InitLatency: stats.Deterministic{Value: initLat},
		},
	}
	prof.Pricing.MinChargeSeconds = 0
	return prof
}

// newHarnessProfile builds the substrate of a run on the cloud prof.
func newHarnessProfile(t testing.TB, prof cloud.Profile, seed uint64) *harness {
	t.Helper()
	clock := vclock.New()
	provider, err := cloud.NewProvider(clock, stats.NewRNG(seed), prof)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := cluster.NewManager(provider, prof.Instance, clock)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{clock: clock, provider: provider, cluster: mgr}
}

// quietModel returns a ResNet-101-style model with tame noise so tests are
// tight.
func quietModel() *model.Model {
	m := model.ResNet101()
	m.IterNoiseStd = 0.01
	m.Curve.NoiseStd = 0.001
	return m
}

func runConfig(t testing.TB, h *harness, s *spec.ExperimentSpec, plan sim.Plan, m *model.Model, seed uint64) Config {
	t.Helper()
	rng := stats.NewRNG(seed)
	space := searchspace.DefaultVisionSpace()
	return Config{
		Spec:     s,
		Plan:     plan,
		Model:    m,
		Batch:    m.BaseBatch,
		Configs:  space.SampleN(rng, s.TotalTrials()),
		Provider: h.provider,
		Cluster:  h.cluster,
		Clock:    h.clock,
		RNG:      rng,
	}
}

func TestValidation(t *testing.T) {
	h := newHarness(t, cloud.PerInstance, 0, 0, 1)
	s := spec.MustSHA(8, 1, 4, 2)
	m := quietModel()
	good := runConfig(t, h, s, sim.Uniform(8, s.NumStages()), m, 1)

	bad := good
	bad.Spec = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil spec accepted")
	}
	bad = good
	bad.Plan = sim.NewPlan(1)
	if _, err := Run(bad); err == nil {
		t.Error("short plan accepted")
	}
	bad = good
	bad.Configs = bad.Configs[:2]
	if _, err := Run(bad); err == nil {
		t.Error("too few configs accepted")
	}
	bad = good
	bad.Batch = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestEndToEndCompletes(t *testing.T) {
	h := newHarness(t, cloud.PerInstance, 2, 5, 2)
	s := spec.MustSHA(8, 2, 16, 2)
	m := quietModel()
	rec := trace.New()
	cfg := runConfig(t, h, s, sim.NewPlan(8, 8, 4, 4), m, 2)
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 || res.Cost <= 0 {
		t.Fatalf("JCT=%v cost=%v", res.JCT, res.Cost)
	}
	if res.BestTrial < 0 {
		t.Fatal("no winner")
	}
	if res.BestAccuracy <= 0 || res.BestAccuracy > 1 {
		t.Fatalf("best accuracy %v", res.BestAccuracy)
	}
	// Exactly one trial completed; the rest terminated.
	completed, terminated := 0, 0
	for _, tr := range res.Trials {
		switch tr.State() {
		case trial.Completed:
			completed++
		case trial.Terminated:
			terminated++
		default:
			t.Fatalf("trial %d left in state %v", tr.ID(), tr.State())
		}
	}
	if completed != 1 || terminated != 7 {
		t.Fatalf("completed=%d terminated=%d", completed, terminated)
	}
	// One stage row per stage with monotone times.
	if len(res.Schedule) != s.NumStages() {
		t.Fatalf("schedule rows = %d", len(res.Schedule))
	}
	for i, row := range res.Schedule {
		if row.End < row.Start {
			t.Fatalf("row %d: end before start", i)
		}
		if i > 0 && row.Start < res.Schedule[i-1].End {
			t.Fatalf("row %d overlaps previous", i)
		}
	}
	// Stage events recorded.
	if rec.Count(trace.KindStageStart) != s.NumStages() || rec.Count(trace.KindStageEnd) != s.NumStages() {
		t.Fatal("missing stage events")
	}
	// All cluster nodes released at the end.
	if h.cluster.Size() != 0 {
		t.Fatalf("%d nodes leaked", h.cluster.Size())
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestSurvivorsTrainFullBudget(t *testing.T) {
	h := newHarness(t, cloud.PerInstance, 0, 0, 3)
	s := spec.MustSHA(8, 2, 16, 2)
	res, err := Run(runConfig(t, h, s, sim.Uniform(8, s.NumStages()), quietModel(), 3))
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Trials[int(res.BestTrial)]
	if winner.CumIters() != s.MaxIters() {
		t.Fatalf("winner trained %d iters, want %d", winner.CumIters(), s.MaxIters())
	}
	// Terminated trials trained exactly the budget of the stages they
	// survived.
	for _, tr := range res.Trials {
		if tr.State() != trial.Terminated {
			continue
		}
		legal := false
		cum := 0
		for i := 0; i < s.NumStages(); i++ {
			cum += s.Stage(i).Iters
			if tr.CumIters() == cum {
				legal = true
			}
		}
		if !legal {
			t.Fatalf("terminated trial %d trained %d iters (not a stage boundary)", tr.ID(), tr.CumIters())
		}
	}
}

func TestSHASelectsGoodConfig(t *testing.T) {
	// The winner should be near the best asymptote among the sampled
	// configs — SHA's whole point.
	h := newHarness(t, cloud.PerInstance, 0, 0, 4)
	s := spec.MustSHA(16, 2, 32, 2)
	m := quietModel()
	cfg := runConfig(t, h, s, sim.Uniform(16, s.NumStages()), m, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bestAsym := 0.0
	for _, c := range cfg.Configs {
		if a := m.Asymptote(c); a > bestAsym {
			bestAsym = a
		}
	}
	if got := m.Asymptote(res.BestConfig); got < bestAsym-0.05 {
		t.Errorf("winner asymptote %v, best available %v", got, bestAsym)
	}
}

func TestQueueingWhenClusterSmall(t *testing.T) {
	// 8 trials on 2 GPUs: trials must queue, and JCT must reflect the
	// serialization (4 waves).
	h := newHarness(t, cloud.PerInstance, 0, 0, 5)
	s := spec.Empty().AddStage(8, 4)
	m := quietModel()
	m.IterNoiseStd = 0
	res, err := Run(runConfig(t, h, s, sim.NewPlan(2), m, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Each trial: 4 iters at 1 GPU = 4 * 36 s; 4 waves = 576 s.
	want := 4.0 * 4 * 36
	if math.Abs(res.JCT-want) > 1 {
		t.Fatalf("JCT = %v, want ~%v", res.JCT, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	runOnce := func() *Result {
		h := newHarness(t, cloud.PerInstance, 2, 10, 7)
		s := spec.MustSHA(8, 2, 8, 2)
		res, err := Run(runConfig(t, h, s, sim.NewPlan(8, 4, 4), quietModel(), 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.JCT != b.JCT || a.Cost != b.Cost || a.BestTrial != b.BestTrial {
		t.Fatalf("nondeterministic: (%v,%v,%d) vs (%v,%v,%d)",
			a.JCT, a.Cost, a.BestTrial, b.JCT, b.Cost, b.BestTrial)
	}
}

func TestElasticCheaperThanStaticEndToEnd(t *testing.T) {
	// The headline claim, realized in execution rather than simulation:
	// a shrinking plan costs less than the static plan at modestly longer
	// JCT.
	s := spec.MustSHA(16, 2, 64, 2)

	run := func(plan sim.Plan) *Result {
		h := newHarness(t, cloud.PerInstance, 2, 10, 8)
		m := quietModel()
		res, err := Run(runConfig(t, h, s, plan, m, 8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(sim.Uniform(16, s.NumStages()))
	elastic := run(sim.NewPlan(16, 16, 8, 4, 4))
	if len(elastic.Schedule) != s.NumStages() {
		t.Fatalf("stages = %d", len(elastic.Schedule))
	}
	if elastic.Cost >= static.Cost {
		t.Fatalf("elastic cost %v not below static %v", elastic.Cost, static.Cost)
	}
}

func TestPlacementAblationThroughput(t *testing.T) {
	// Table 1's mechanism: disabling placement scatters workers and
	// slows multi-GPU trials, raising JCT.
	s := spec.Empty().AddStage(4, 8)
	plan := sim.NewPlan(16) // 4 GPUs per trial on 4-GPU nodes

	run := func(disable bool) *Result {
		h := newHarness(t, cloud.PerInstance, 0, 0, 9)
		m := quietModel()
		m.IterNoiseStd = 0
		cfg := runConfig(t, h, s, plan, m, 9)
		cfg.DisablePlacement = disable
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	placed := run(false)
	scattered := run(true)
	if scattered.JCT <= placed.JCT*1.2 {
		t.Fatalf("scattering barely hurt: %v vs %v", scattered.JCT, placed.JCT)
	}
}

func TestRestoreLatencyCharged(t *testing.T) {
	s := spec.MustSHA(4, 2, 8, 2)
	run := func(restore float64) float64 {
		prof := testProfile(t, "p3.8xlarge", 0, 0)
		prof.RestoreSeconds = restore
		h := newHarnessProfile(t, prof, 10)
		m := quietModel()
		m.IterNoiseStd = 0
		cfg := runConfig(t, h, s, sim.Uniform(4, s.NumStages()), m, 10)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT
	}
	fast, slow := run(0), run(30)
	// Two migrations (stages 1 and 2) x 30 s each.
	if diff := slow - fast; math.Abs(diff-60) > 1 {
		t.Fatalf("restore latency contributed %v, want ~60", diff)
	}
}

func TestPerFunctionCheaperThanPerInstanceEndToEnd(t *testing.T) {
	s := spec.MustSHA(8, 2, 16, 2)
	m := model.ResNet101() // default straggler noise
	run := func(billing cloud.BillingModel) float64 {
		h := newHarness(t, billing, 0, 0, 11)
		res, err := Run(runConfig(t, h, s, sim.Uniform(8, s.NumStages()), m, 11))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost
	}
	perInst := run(cloud.PerInstance)
	perFn := run(cloud.PerFunction)
	if perFn >= perInst {
		t.Fatalf("per-function %v not cheaper than per-instance %v", perFn, perInst)
	}
}

func TestScaleDownReleasesNodes(t *testing.T) {
	h := newHarness(t, cloud.PerInstance, 0, 0, 12)
	s := spec.Empty().AddStage(8, 2).AddStage(2, 4)
	m := quietModel()
	rec := trace.New()
	cfg := runConfig(t, h, s, sim.NewPlan(8, 2), m, 12)
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Count(trace.KindScaleDown) == 0 {
		t.Fatal("no scale-down recorded")
	}
	// Some instance must have been terminated before the job ended.
	terminatedEarly := false
	for _, in := range h.provider.Instances() {
		if in.State == cloud.Terminated && float64(in.TerminatedAt) < float64(h.clock.Now()) {
			terminatedEarly = true
		}
	}
	if !terminatedEarly {
		t.Fatal("no mid-job deprovisioning")
	}
}
