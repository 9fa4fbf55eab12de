package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// InstancesResult holds the instance-type selection extension: the
// elastic plan compiled on each GPU tier of the catalog, across a tight
// and a lax deadline. Expected shape: the trade-off flips with the
// deadline — coarse 8-GPU nodes win when multi-GPU gangs dominate (tight
// deadline, co-location matters), while fine-grained nodes are
// competitive when trials stay small (lax deadline, provisioning
// granularity matters).
type InstancesResult struct {
	Deadlines []float64
	// Rows[d] lists every catalog choice at Deadlines[d].
	Rows [][]InstanceRow
}

// InstanceRow is one (deadline, type) cell.
type InstanceRow struct {
	Instance string
	GPUs     int
	Feasible bool
	Cost     float64
	JCT      float64
	Plan     string
	Chosen   bool
}

// Instances runs the selection across deadlines.
func Instances(cfg Config) (*InstancesResult, error) {
	cfg = cfg.withDefaults()
	m := model.ResNet50()
	s := spec.MustSHA(64, 4, 508, 2)
	deadlines := []float64{600, 900, 1800}
	if cfg.Fast {
		s = spec.MustSHA(16, 4, 508, 2)
		deadlines = []float64{700, 1800}
	}
	profiles := func(it cloud.InstanceType) sim.TrainProfile {
		return sim.ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: it.GPUs}
	}
	base := sim.DefaultCloudProfile()
	base.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}

	res := &InstancesResult{Deadlines: deadlines}
	for _, dl := range deadlines {
		sel, err := planner.SelectInstanceType(cloud.DefaultCatalog(), s, profiles, base,
			dl, 256)
		if err != nil && err != planner.ErrInfeasible {
			return nil, fmt.Errorf("instances deadline=%v: %w", dl, err)
		}
		var rows []InstanceRow
		if sel != nil {
			for _, c := range sel.Choices {
				row := InstanceRow{
					Instance: c.Instance.Name,
					GPUs:     c.Instance.GPUs,
					Feasible: c.Feasible,
					Chosen:   c.Feasible && c.Instance.Name == sel.Best.Instance.Name,
				}
				if c.Feasible {
					row.Cost = c.Result.Estimate.Cost
					row.JCT = c.Result.Estimate.JCT
					row.Plan = c.Result.Plan.String()
				}
				rows = append(rows, row)
			}
		}
		res.Rows = append(res.Rows, rows)
	}
	return res, nil
}

// render builds the table.
func (r *InstancesResult) render() *table {
	t := &table{
		title:  "Extension: worker instance-type selection (elastic plan per catalog tier)",
		header: []string{"deadline", "instance", "GPUs/node", "cost ($)", "JCT (s)", "plan", "chosen"},
	}
	for di, dl := range r.Deadlines {
		for _, row := range r.Rows[di] {
			cost, jct, plan := "infeasible", "-", "-"
			if row.Feasible {
				cost = fmt.Sprintf("%.2f", row.Cost)
				jct = fmt.Sprintf("%.0f", row.JCT)
				plan = row.Plan
			}
			chosen := ""
			if row.Chosen {
				chosen = "*"
			}
			t.add(fmt.Sprintf("%.0fs", dl), row.Instance, fmt.Sprint(row.GPUs),
				cost, jct, plan, chosen)
		}
	}
	return t
}

// String renders the result as an aligned text table.
func (r *InstancesResult) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *InstancesResult) CSV() string { return r.render().CSV() }
