package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/spec"
)

// Fig12Result holds the initialization-latency sweep of Figure 12:
// simulated cost of SHA(512, 4, 4096) over ResNet-50 (12 s/iteration at
// batch 2048) under per-instance billing, across deadlines from 90 to 160
// minutes, at instance initialization latencies of 1, 10 and 100 s.
// Expected shape: the elastic policy's advantage is largest at the
// tightest deadlines and shrinks as the deadline relaxes; growing the
// initialization latency erodes (but does not invert) the advantage,
// since scale-ups price in the overhead.
type Fig12Result struct {
	InitLatencies []float64
	Deadlines     []float64 // seconds
	// Cost[init][policy][i] is the predicted cost at Deadlines[i];
	// init is formatted as "1s", "10s", "100s".
	Cost map[string]map[string][]float64
}

// Fig12 runs the initialization-latency sweep.
func Fig12(cfg Config) (*Fig12Result, error) {
	cfg = cfg.withDefaults()
	inits := []float64{1, 10, 100}
	deadlines := []float64{90 * 60, 110 * 60, 130 * 60, 160 * 60}
	n, maxR := 512, 4096
	maxGPUs := 1024
	if cfg.Fast {
		inits = []float64{1, 100}
		deadlines = []float64{1800, 3600}
		n, maxR = 64, 508
		maxGPUs = 128
	}
	// §6.1.4: ResNet-50 with batch 2048, mean iteration latency 12 s.
	m := model.ResNet50()
	m.BaseBatch = 2048
	m.BaseIterSeconds = 12
	m.IterNoiseStd = 1

	res := &Fig12Result{InitLatencies: inits, Deadlines: deadlines, Cost: make(map[string]map[string][]float64)}
	for _, initLat := range inits {
		key := fmt.Sprintf("%gs", initLat)
		res.Cost[key] = map[string][]float64{"static": nil, "elastic": nil}
		for _, deadline := range deadlines {
			w := workloadFig12(m, n, maxR, initLat, deadline, maxGPUs)
			static, elastic, err := w.policyCosts()
			if err != nil {
				return nil, fmt.Errorf("fig12 init=%v deadline=%v: %w", initLat, deadline, err)
			}
			res.Cost[key]["static"] = append(res.Cost[key]["static"], static.Estimate.Cost)
			res.Cost[key]["elastic"] = append(res.Cost[key]["elastic"], elastic.Estimate.Cost)
		}
	}
	return res, nil
}

func workloadFig12(m *model.Model, n, maxR int, initLat, deadline float64, maxGPUs int) workload {
	mm := *m
	return workload{
		spec:  spec.MustSHA(n, 4, maxR, 2),
		model: &mm,
		batch: mm.BaseBatch,
		// The paper ran this sweep on p3.8xlarge; with our calibrated
		// cross-node penalty a 512-trial job cannot reach the 90-minute
		// deadline on 4-GPU nodes (the achievable speedup saturates), so
		// we use the 8-GPU p3.16xlarge tier, which halves node
		// boundaries and restores feasibility. See EXPERIMENTS.md.
		instance: "p3.16xlarge",
		billing:  0, // per-instance
		queue:    5,
		initLat:  initLat,
		deadline: deadline,
		maxGPUs:  maxGPUs,
	}
}

// String renders the three panels.
func (r *Fig12Result) render() *table {
	t := &table{title: "Figure 12: simulated cost ($) vs deadline at varying init latency (per-instance billing)"}
	t.header = []string{"init", "policy"}
	for _, d := range r.Deadlines {
		t.header = append(t.header, fmt.Sprintf("%dm", int(d/60)))
	}
	for _, init := range r.InitLatencies {
		key := fmt.Sprintf("%gs", init)
		for _, policy := range []string{"static", "elastic"} {
			row := []string{key, policy}
			for _, c := range r.Cost[key][policy] {
				row = append(row, fmt.Sprintf("%.2f", c))
			}
			t.add(row...)
		}
	}
	return t
}

// String renders the result as an aligned text table.
func (r *Fig12Result) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *Fig12Result) CSV() string { return r.render().CSV() }
