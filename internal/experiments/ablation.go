package experiments

import (
	"fmt"

	"repro/internal/planner"
)

// AblationResult reports planner design-choice ablations on the
// SHA(64, 4, 508) ResNet-50 workload at a 15-minute deadline:
//
//   - Warm-start multipliers ({1} vs {1,2,3}): multi-start can only help.
//   - Instance-boundary candidates (on vs off): under per-instance
//     billing, disabling them stalls the greedy descent on sub-instance
//     decrements, losing most of the elastic saving.
//   - Equation 1's JCT-normalized selection vs raw cost selection.
type AblationResult struct {
	Rows []AblationRow
}

// AblationRow is one planner variant's outcome.
type AblationRow struct {
	Variant string
	Cost    float64
	JCT     float64
	Plan    string
}

// Ablation runs the planner variants.
func Ablation(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	base := func() workload {
		w := fig9Workload(cfg)
		w.deadline = 900
		w.queue = 5
		w.initLat = 15
		return w
	}

	res := &AblationResult{}
	addVariant := func(name string, mutate func(*planner.Planner)) error {
		w := base()
		p, err := w.planner()
		if err != nil {
			return err
		}
		if mutate != nil {
			mutate(p)
		}
		out, err := p.PlanElastic()
		if err != nil {
			return fmt.Errorf("ablation %s: %w", name, err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant: name,
			Cost:    out.Estimate.Cost,
			JCT:     out.Estimate.JCT,
			Plan:    out.Plan.String(),
		})
		return nil
	}

	if err := addVariant("warm-start={1}", func(p *planner.Planner) {
		p.WarmStartMultipliers = []int{1}
	}); err != nil {
		return nil, err
	}
	if err := addVariant("warm-start={1,2,3}", nil); err != nil {
		return nil, err
	}
	if err := addVariant("instance-step=off", func(p *planner.Planner) {
		p.DisableInstanceStep = true
	}); err != nil {
		return nil, err
	}
	if err := addVariant("instance-step=on", nil); err != nil {
		return nil, err
	}
	if err := addVariant("selection=raw-cost", func(p *planner.Planner) {
		p.RawCostSelection = true
	}); err != nil {
		return nil, err
	}
	if err := addVariant("selection=eq1-normalized", nil); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the ablation table.
func (r *AblationResult) render() *table {
	t := &table{
		title:  "Planner design-choice ablations (SHA(64,4,508), ResNet-50, 15-minute deadline)",
		header: []string{"variant", "predicted cost ($)", "predicted JCT (s)", "plan"},
	}
	for _, row := range r.Rows {
		t.add(row.Variant, fmt.Sprintf("%.2f", row.Cost), fmt.Sprintf("%.0f", row.JCT), row.Plan)
	}
	return t
}

// String renders the result as an aligned text table.
func (r *AblationResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *AblationResult) CSV() string { return r.render().CSV() }
