package experiments

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Table4Row is one model row.
type Table4Row struct {
	Model    string
	Deadline time.Duration
	Fixed    Stat
	Rubber   Stat
}

// Table4Result reproduces Table 4: realized cost of fixed-cluster vs
// RubberBand execution for ResNet-101/CIFAR-10 (20 min),
// ResNet-152/CIFAR-100 (60 min) and BERT/RTE (20 min). Expected shape:
// RubberBand reduces cost on every model; the reduction is largest for
// the vision models (strong early parallelism and long survivor tails)
// and smaller for BERT (worse scaling limits how much front-loading
// helps).
type Table4Result struct {
	Rows []Table4Row
}

// table4Workloads returns the three model workloads; Table4 sets each
// run's seed and policy.
func table4Workloads(cfg Config) []harness.Scenario {
	shaVision := spec.MustSHA(32, 1, 50, 3)
	shaBERT := spec.MustSHA(32, 1, 30, 3)
	if cfg.Fast {
		shaVision = spec.MustSHA(8, 1, 12, 3)
		shaBERT = spec.MustSHA(8, 1, 9, 3)
	}
	// The paper's wall-clock deadlines (20/60/20 minutes) correspond to
	// its testbed's epoch times. Our substrate's epochs are shorter for
	// ResNet-152/CIFAR-100 and BERT/RTE, so the paper's deadlines would
	// be slack — a regime where the cost-optimal plan is a tiny static
	// cluster for every policy. We scale those two deadlines to the same
	// *tightness* (deadline ÷ minimum serial tail time) as the paper's,
	// preserving the comparison the table makes. See EXPERIMENTS.md.
	workload := func(m *model.Model, space *searchspace.Space, sp *spec.ExperimentSpec, deadlineMin int) harness.Scenario {
		return harness.Scenario{
			Spec:           sp,
			Model:          m,
			Space:          space,
			Profile:        warmPoolProfile(m.Dataset.SizeGB),
			RestoreSeconds: 2,
			MaxGPUs:        128,
			Deadline:       float64(deadlineMin * 60),
		}
	}
	return []harness.Scenario{
		workload(model.ResNet101(), searchspace.DefaultVisionSpace(), shaVision, 20),
		workload(model.ResNet152(), searchspace.DefaultVisionSpace(), shaVision, 25),
		workload(model.BERT(), searchspace.DefaultNLPSpace(), shaBERT, 7),
	}
}

// table4Seed is the seed of workload wi's repetition s.
func table4Seed(cfg Config, wi, s int) uint64 { return cfg.Seed + uint64(wi)*7777 + uint64(s)*1000 }

// Table4 runs the model sweep end-to-end.
func Table4(cfg Config) (*Table4Result, error) {
	cfg = cfg.withDefaults()
	res := &Table4Result{}
	for wi, sc := range table4Workloads(cfg) {
		row := Table4Row{Model: sc.Model.Name, Deadline: time.Duration(sc.Deadline) * time.Second}
		var fixed, rubber []float64
		for s := 0; s < cfg.Seeds; s++ {
			sc.BatchSeed = table4Seed(cfg, wi, s)
			for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyRubberBand} {
				sc.Policy = policy
				a, err := runPlanned(sc)
				if err != nil {
					return nil, fmt.Errorf("table4 %s %v: %w", sc.Model.Name, policy, err)
				}
				if policy == planner.PolicyStatic {
					fixed = append(fixed, a.Result.Cost)
				} else {
					rubber = append(rubber, a.Result.Cost)
				}
			}
		}
		row.Fixed.Mean, row.Fixed.Std = stats.MeanStd(fixed)
		row.Rubber.Mean, row.Rubber.Std = stats.MeanStd(rubber)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders Table 4.
func (r *Table4Result) render() *table {
	t := &table{
		title:  "Table 4: realized cost ($) across models, fixed cluster vs RubberBand",
		header: []string{"Model", "Time", "Fixed", "RubberBand"},
	}
	for _, row := range r.Rows {
		t.add(row.Model,
			mmss(row.Deadline.Seconds()),
			meanStd(row.Fixed.Mean, row.Fixed.Std),
			meanStd(row.Rubber.Mean, row.Rubber.Std))
	}
	return t
}

// String renders the result as an aligned text table.
func (r *Table4Result) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *Table4Result) CSV() string { return r.render().CSV() }
