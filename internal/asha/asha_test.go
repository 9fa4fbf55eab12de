package asha

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// harness builds the substrate for one ASHA run.
func harness(t *testing.T, seed uint64) (*cloud.Provider, *cluster.Manager, *vclock.Clock) {
	t.Helper()
	clock := vclock.New()
	pricing := cloud.DefaultPricing()
	pricing.MinChargeSeconds = 0
	ov := cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 2},
		InitLatency: stats.Deterministic{Value: 10},
	}
	it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	provider, err := cloud.NewProvider(clock, stats.NewRNG(seed), cloud.Profile{Instance: it, Pricing: pricing, Overheads: ov})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := cluster.NewManager(provider, it, clock)
	if err != nil {
		t.Fatal(err)
	}
	return provider, mgr, clock
}

func baseConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	provider, mgr, clock := harness(t, seed)
	m := model.ResNet101()
	m.IterNoiseStd = 0.5
	return Config{
		Model:    m,
		Batch:    m.BaseBatch,
		Space:    searchspace.DefaultVisionSpace(),
		MinIters: 1,
		MaxIters: 9,
		Eta:      3,
		Workers:  8,
		Deadline: 1200,
		Provider: provider,
		Cluster:  mgr,
		Clock:    clock,
		RNG:      stats.NewRNG(seed),
	}
}

func TestValidation(t *testing.T) {
	good := baseConfig(t, 1)
	mutations := []func(*Config){
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.Space = nil },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.MinIters = 0 },
		func(c *Config) { c.MaxIters = 0 },
		func(c *Config) { c.Eta = 1 },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Deadline = 0 },
		func(c *Config) { c.Clock = nil },
	}
	for i, mutate := range mutations {
		bad := good
		mutate(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRungLadder(t *testing.T) {
	c := Config{MinIters: 1, MaxIters: 9, Eta: 3}
	want := []int{1, 3, 9}
	for k, w := range want {
		if got := c.rungTarget(k); got != w {
			t.Errorf("rungTarget(%d) = %d, want %d", k, got, w)
		}
	}
	if c.topRung() != 2 {
		t.Errorf("topRung = %d, want 2", c.topRung())
	}
	// Targets clamp at R.
	c = Config{MinIters: 4, MaxIters: 10, Eta: 2}
	if got := c.rungTarget(2); got != 10 {
		t.Errorf("clamped rungTarget = %d, want 10", got)
	}
}

func TestRunCompletes(t *testing.T) {
	cfg := baseConfig(t, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 || res.JCT <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Sampled < cfg.Workers {
		t.Errorf("only %d configs sampled", res.Sampled)
	}
	if res.Promotions == 0 {
		t.Error("no promotions occurred")
	}
	if res.BestAccuracy <= 0 || res.BestConfig.Len() == 0 {
		t.Error("no best configuration")
	}
	// The cluster is fully released afterwards.
	if cfg.Cluster.Size() != 0 {
		t.Errorf("%d nodes leaked", cfg.Cluster.Size())
	}
}

func TestKeepsSamplingNewConfigs(t *testing.T) {
	// The defining (and criticized) ASHA behaviour: the trial count
	// greatly exceeds what synchronous SHA would evaluate, because freed
	// workers keep drawing fresh configurations.
	cfg := baseConfig(t, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled < 3*cfg.Workers {
		t.Errorf("sampled %d configs; expected continuous sampling well beyond %d workers",
			res.Sampled, cfg.Workers)
	}
}

func TestDeadlineRespected(t *testing.T) {
	cfg := baseConfig(t, 4)
	cfg.Deadline = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Work stops shortly after the deadline: the overrun is bounded by
	// one chunk (here ≤ R iterations at ~36 s each).
	maxOverrun := float64(cfg.MaxIters) * 50
	if res.JCT > cfg.Deadline+maxOverrun {
		t.Errorf("JCT %v overran deadline %v by more than a chunk", res.JCT, cfg.Deadline)
	}
}

func TestLongerDeadlineImprovesBest(t *testing.T) {
	short := baseConfig(t, 5)
	short.Deadline = 250
	long := baseConfig(t, 5)
	long.Deadline = 2500
	a, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if b.BestAccuracy < a.BestAccuracy {
		t.Errorf("longer deadline worsened best: %v -> %v", a.BestAccuracy, b.BestAccuracy)
	}
	if b.Cost <= a.Cost {
		t.Errorf("longer deadline not more expensive: %v vs %v", b.Cost, a.Cost)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(baseConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Sampled != b.Sampled || a.BestAccuracy != b.BestAccuracy {
		t.Fatal("ASHA run not deterministic")
	}
}

func TestPromotionPrefersBetterTrials(t *testing.T) {
	// Any trial that reached the top rung must have been promotable at
	// every rung, i.e. its accuracy placed it in the top 1/η at the
	// time. Weak proxy check: finished trials' asymptotes are above the
	// median of all sampled configs.
	cfg := baseConfig(t, 7)
	cfg.Deadline = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished == 0 {
		t.Skip("no trial reached the top rung in budget")
	}
	// The top rung is only 9 cumulative epochs (τ = 14), so even an
	// ideal configuration observes ≈47% of its asymptote here.
	if res.BestAccuracy < 0.35 {
		t.Errorf("best accuracy %v suspiciously low for ResNet-101 ladder", res.BestAccuracy)
	}
}
