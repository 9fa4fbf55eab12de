package experiments

import (
	"fmt"

	"repro/internal/asha"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// ASHAResult compares RubberBand against the asynchronous prior-work
// baseline (§7): ASHA on a fixed cluster keeps sampling new
// configurations whenever workers free up, which the paper (citing
// HyperSched) argues is an ineffective use of resources under a time
// constraint. Expected shape: at an equal deadline, ASHA spends at least
// as much (its cluster never shrinks) while its best *fully trained*
// configuration is no better; most of its sampled configurations die
// partially trained.
type ASHAResult struct {
	Rows []ASHARow
}

// ASHARow is one scheduler's outcome.
type ASHARow struct {
	Scheduler    string
	Cost         Stat
	BestAccuracy Stat
	// SampledConfigs is the mean number of configurations evaluated (at
	// any depth); FinishedConfigs is the mean number trained to the full
	// budget R.
	SampledConfigs  float64
	FinishedConfigs float64
}

// ASHA runs the comparison.
func ASHA(cfg Config) (*ASHAResult, error) {
	cfg = cfg.withDefaults()
	const workers = 8
	var (
		rbCost, rbAcc, ashaCost, ashaAcc, sampled, finished []float64
		sc                                                  harness.Scenario
	)
	for s := 0; s < cfg.Seeds; s++ {
		sc = ashaScenario(cfg, s)
		a, err := runPlanned(sc)
		if err != nil {
			return nil, fmt.Errorf("asha experiment (rubberband): %w", err)
		}
		rbCost = append(rbCost, a.Result.Cost)
		rbAcc = append(rbAcc, a.Result.BestAccuracy)

		// ASHA on the same ladder and substrate.
		cp := sc.Profile
		clock := vclock.New()
		rng := stats.NewRNG(sc.BatchSeed + 2)
		provider, err := cloud.NewProvider(clock, rng.Split(), cp)
		if err != nil {
			return nil, err
		}
		mgr, err := cluster.NewManager(provider, cp.Instance, clock)
		if err != nil {
			return nil, err
		}
		ashaRes, err := asha.Run(asha.Config{
			Model:    sc.Model,
			Batch:    sc.Model.BaseBatch,
			Space:    sc.Space,
			MinIters: 1, MaxIters: sc.Spec.MaxIters(), Eta: 3,
			Workers:  workers,
			Deadline: sc.Deadline,
			Provider: provider,
			Cluster:  mgr,
			Clock:    clock,
			RNG:      rng,
		})
		if err != nil {
			return nil, fmt.Errorf("asha experiment (asha): %w", err)
		}
		ashaCost = append(ashaCost, ashaRes.Cost)
		ashaAcc = append(ashaAcc, ashaRes.BestAccuracy)
		sampled = append(sampled, float64(ashaRes.Sampled))
		finished = append(finished, float64(ashaRes.Finished))
	}

	res := &ASHAResult{}
	rb := ASHARow{Scheduler: "RubberBand", SampledConfigs: float64(sc.Spec.TotalTrials()), FinishedConfigs: 1}
	rb.Cost.Mean, rb.Cost.Std = stats.MeanStd(rbCost)
	rb.BestAccuracy.Mean, rb.BestAccuracy.Std = stats.MeanStd(rbAcc)
	as := ASHARow{Scheduler: "ASHA (fixed cluster)"}
	as.Cost.Mean, as.Cost.Std = stats.MeanStd(ashaCost)
	as.BestAccuracy.Mean, as.BestAccuracy.Std = stats.MeanStd(ashaAcc)
	as.SampledConfigs, _ = stats.MeanStd(sampled)
	as.FinishedConfigs, _ = stats.MeanStd(finished)
	res.Rows = []ASHARow{rb, as}
	return res, nil
}

// ashaScenario is RubberBand's arm of the ASHA comparison, repetition s:
// SHA(32, 1, 50, η=3) under 20 minutes. ASHA runs the same ladder.
func ashaScenario(cfg Config, s int) harness.Scenario {
	sp := spec.MustSHA(32, 1, 50, 3)
	if cfg.Fast {
		sp = spec.MustSHA(8, 1, 12, 3)
	}
	return harness.Scenario{
		BatchSeed: cfg.Seed + 500 + uint64(s)*1000,
		Spec:      sp,
		Model:     model.ResNet101(),
		Space:     searchspace.DefaultVisionSpace(),
		Profile:   warmPoolProfile(model.CIFAR10.SizeGB),
		MaxGPUs:   128,
		Deadline:  20 * 60,
	}
}

// String renders the comparison.
func (r *ASHAResult) render() *table {
	t := &table{
		title:  "ASHA (prior work, fixed cluster) vs RubberBand at an equal deadline",
		header: []string{"scheduler", "cost ($)", "best acc", "configs sampled", "fully trained"},
	}
	for _, row := range r.Rows {
		t.add(row.Scheduler,
			meanStd(row.Cost.Mean, row.Cost.Std),
			meanStd(row.BestAccuracy.Mean*100, row.BestAccuracy.Std*100),
			fmt.Sprintf("%.0f", row.SampledConfigs),
			fmt.Sprintf("%.0f", row.FinishedConfigs))
	}
	return t
}

// SpotResult sweeps spot-market preemption intensity (the paper's
// deferred future work): RubberBand on ~3x cheaper preemptible capacity,
// recovering from reclamations via checkpoints. Expected shape: spot
// dominates on cost while preemptions are rare; as reclamation
// intensifies, replayed work and restore latency erode the discount and
// stretch JCT.
type SpotResult struct {
	Rows []SpotRow
}

// SpotRow is one preemption intensity.
type SpotRow struct {
	Label       string
	Cost        Stat
	JCT         Stat
	Preemptions float64 // mean per run
}

// spotPoint is one capacity of the spot sweep: a market and a mean
// time between preemptions (zero: none).
type spotPoint struct {
	label   string
	market  cloud.Market
	preempt float64
}

// spotPoints returns the sweep's capacities.
func spotPoints(fast bool) []spotPoint {
	points := []spotPoint{
		{"on-demand", cloud.OnDemand, 0},
		{"spot, stable", cloud.Spot, 0},
		{"spot, preempt 20m", cloud.Spot, 1200},
		{"spot, preempt 10m", cloud.Spot, 600},
		{"spot, preempt 5m", cloud.Spot, 300},
	}
	if fast {
		points = points[:3]
	}
	return points
}

// Spot runs the sweep.
func Spot(cfg Config) (*SpotResult, error) {
	cfg = cfg.withDefaults()
	res := &SpotResult{}
	for _, pt := range spotPoints(cfg.Fast) {
		var costs, jcts, preempts []float64
		for s := 0; s < cfg.Seeds; s++ {
			a, err := runPlanned(spotScenario(cfg, pt, s))
			if err != nil {
				return nil, fmt.Errorf("spot %s: %w", pt.label, err)
			}
			costs = append(costs, a.Result.Cost)
			jcts = append(jcts, a.Result.JCT)
			preempts = append(preempts, float64(a.Result.Preemptions))
		}
		row := SpotRow{Label: pt.label}
		row.Cost.Mean, row.Cost.Std = stats.MeanStd(costs)
		row.JCT.Mean, row.JCT.Std = stats.MeanStd(jcts)
		row.Preemptions, _ = stats.MeanStd(preempts)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// spotScenario is the spot sweep's run at capacity pt, repetition s.
func spotScenario(cfg Config, pt spotPoint, s int) harness.Scenario {
	sp := spec.MustSHA(16, 1, 30, 3)
	if cfg.Fast {
		sp = spec.MustSHA(8, 1, 9, 3)
	}
	cp := warmPoolProfile(model.CIFAR10.SizeGB)
	cp.Pricing.Market = pt.market
	cp.Faults.PreemptionMeanSeconds = pt.preempt
	cp.RestoreSeconds = 5
	return harness.Scenario{
		BatchSeed: cfg.Seed + 900 + uint64(s)*1000,
		Spec:      sp,
		Model:     model.ResNet101(),
		Space:     searchspace.DefaultVisionSpace(),
		Profile:   cp,
		Deadline:  25 * 60,
	}
}

// String renders the sweep.
func (r *SpotResult) render() *table {
	t := &table{
		title:  "Spot-market extension: RubberBand on preemptible capacity",
		header: []string{"capacity", "cost ($)", "JCT (s)", "preemptions/run"},
	}
	for _, row := range r.Rows {
		t.add(row.Label,
			meanStd(row.Cost.Mean, row.Cost.Std),
			meanStd(row.JCT.Mean, row.JCT.Std),
			fmt.Sprintf("%.1f", row.Preemptions))
	}
	return t
}

// String renders the result as an aligned text table.
func (r *ASHAResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *ASHAResult) CSV() string { return r.render().CSV() }

// String renders the result as an aligned text table.
func (r *SpotResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *SpotResult) CSV() string { return r.render().CSV() }
