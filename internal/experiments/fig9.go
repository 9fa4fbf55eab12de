package experiments

import (
	"fmt"

	"repro/internal/cloud"
)

// Fig9Result holds the straggler sweep of Figure 9: simulated cost of
// SHA(64, 4, 508) over ResNet-50/p3.8xlarge as per-iteration latency σ
// grows from 1 to 10 s (μ = 4 s), under both billing models, for the
// static (a) and elastic (b) policies. Expected shape: per-instance cost
// rises sharply with σ (idle resources held at synchronization barriers)
// while per-function cost stays nearly flat; this holds for both
// policies.
type Fig9Result struct {
	Sigmas []float64
	// Cost[policy][billing][i] is the predicted cost at Sigmas[i];
	// policy ∈ {"static", "elastic"}, billing ∈ {"per-instance",
	// "per-function"}.
	Cost map[string]map[string][]float64
}

// Fig9 runs the straggler sweep.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	sigmas := []float64{1, 2, 4, 6, 8, 10}
	if cfg.Fast {
		sigmas = []float64{1, 10}
	}
	res := &Fig9Result{
		Sigmas: sigmas,
		Cost: map[string]map[string][]float64{
			"static":  {"per-instance": nil, "per-function": nil},
			"elastic": {"per-instance": nil, "per-function": nil},
		},
	}
	for _, sigma := range sigmas {
		// Plans are compiled once under the conventional per-instance
		// model; the same plans are then priced under each billing
		// regime, isolating the meter's effect from plan adaptation —
		// the comparison Figure 9 draws.
		w := fig9Workload(cfg)
		w.initLat = 0 // §6.1.1: instance initialization fixed at 0 s
		w.model.IterNoiseStd = sigma
		static, elastic, err := w.policyCosts()
		if err != nil {
			return nil, fmt.Errorf("fig9 sigma=%v: %w", sigma, err)
		}
		for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
			wb := w
			wb.billing = billing
			sm, err := wb.simulator()
			if err != nil {
				return nil, err
			}
			se, err := sm.Estimate(static.Plan)
			if err != nil {
				return nil, fmt.Errorf("fig9 sigma=%v static: %w", sigma, err)
			}
			ee, err := sm.Estimate(elastic.Plan)
			if err != nil {
				return nil, fmt.Errorf("fig9 sigma=%v elastic: %w", sigma, err)
			}
			res.Cost["static"][billing.String()] = append(res.Cost["static"][billing.String()], se.Cost)
			res.Cost["elastic"][billing.String()] = append(res.Cost["elastic"][billing.String()], ee.Cost)
		}
	}
	return res, nil
}

// String renders both panels.
func (r *Fig9Result) render() *table {
	t := &table{title: "Figure 9: impact of stragglers on simulated cost ($) under billing regimes"}
	t.header = []string{"policy", "billing"}
	for _, s := range r.Sigmas {
		t.header = append(t.header, fmt.Sprintf("σ=%g", s))
	}
	for _, policy := range []string{"static", "elastic"} {
		for _, billing := range []string{"per-instance", "per-function"} {
			row := []string{policy, billing}
			for _, c := range r.Cost[policy][billing] {
				row = append(row, fmt.Sprintf("%.2f", c))
			}
			t.add(row...)
		}
	}
	return t
}

// String renders the result as an aligned text table.
func (r *Fig9Result) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *Fig9Result) CSV() string { return r.render().CSV() }
