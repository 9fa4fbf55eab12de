package experiments

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/spec"
	"repro/internal/stats"
)

// FidelityResult generalizes Table 2's sim-vs-real validation: across a
// population of randomized SHA workloads (varying trial counts, budgets,
// models and plans), it reports the distribution of relative error
// between the DAG-model prediction and the executed outcome, for both JCT
// and cost. Expected shape: median error of a few percent, tails bounded
// — the property that justifies planning offline from the simulator.
type FidelityResult struct {
	Workloads int
	JCTErr    ErrSummary
	CostErr   ErrSummary
}

// ErrSummary holds percentiles of absolute relative error (fractions).
type ErrSummary struct {
	P50, P90, Max float64
}

// fidelityScenarios draws the randomized workloads.
func fidelityScenarios(cfg Config) ([]harness.Scenario, error) {
	workloads := 12
	if cfg.Fast {
		workloads = 4
	}
	rng := stats.NewRNG(cfg.Seed + 4000)
	models := []*model.Model{model.ResNet101(), model.ResNet152(), model.BERT()}
	var out []harness.Scenario
	for w := 0; w < workloads; w++ {
		m := models[w%len(models)]
		n := []int{8, 16, 32}[rng.Intn(3)]
		maxR := []int{12, 20, 30}[rng.Intn(3)]
		eta := []int{2, 3}[rng.Intn(2)]
		s, err := spec.SHA(spec.SHAParams{N: n, R: 1, MaxR: maxR, Eta: eta})
		if err != nil {
			return nil, err
		}
		cp := warmPoolProfile(m.Dataset.SizeGB)
		cp.Overheads.QueueDelay = stats.Exponential{MeanValue: 5}
		out = append(out, harness.Scenario{
			BatchSeed: cfg.Seed + uint64(w)*101,
			Spec:      s,
			Model:     m,
			Space:     searchspace.ForModel(m.Name),
			Profile:   cp,
			MaxGPUs:   64,
			Deadline:  45 * 60,
		})
	}
	return out, nil
}

// Fidelity runs the randomized validation.
func Fidelity(cfg Config) (*FidelityResult, error) {
	cfg = cfg.withDefaults()
	scs, err := fidelityScenarios(cfg)
	if err != nil {
		return nil, err
	}
	var jctErrs, costErrs []float64
	for w, sc := range scs {
		a, err := runPlanned(sc)
		if err != nil {
			return nil, fmt.Errorf("fidelity workload %d (%s, %v): %w", w, sc.Model.Name, sc.Spec, err)
		}
		jctErrs = append(jctErrs, math.Abs(a.Result.JCT-a.Estimate.JCT)/a.Estimate.JCT)
		costErrs = append(costErrs, math.Abs(a.Result.Cost-a.Estimate.Cost)/a.Estimate.Cost)
	}

	summarize := func(xs []float64) ErrSummary {
		s := stats.Summarize(xs)
		return ErrSummary{P50: s.P50, P90: s.P90, Max: s.Max}
	}
	return &FidelityResult{
		Workloads: len(scs),
		JCTErr:    summarize(jctErrs),
		CostErr:   summarize(costErrs),
	}, nil
}

// render builds the fidelity table.
func (r *FidelityResult) render() *table {
	t := &table{
		title:  fmt.Sprintf("Simulation fidelity across %d randomized workloads (|sim − real| / sim)", r.Workloads),
		header: []string{"metric", "p50", "p90", "max"},
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
	t.add("JCT error", pct(r.JCTErr.P50), pct(r.JCTErr.P90), pct(r.JCTErr.Max))
	t.add("cost error", pct(r.CostErr.P50), pct(r.CostErr.P90), pct(r.CostErr.Max))
	return t
}

// String renders the result as an aligned text table.
func (r *FidelityResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *FidelityResult) CSV() string { return r.render().CSV() }
