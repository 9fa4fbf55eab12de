package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/spec"
)

// Fig11Result holds the job-size sweep of Figure 11: simulated cost of
// SHA(k, 4, 508) as the trial count k grows, under a 20-minute deadline,
// for per-instance (a) and per-function (b) billing. Expected shape: the
// elastic policy wins at every job size under both billing models, and
// the absolute gap grows with the trial count (more early parallelism to
// exploit).
type Fig11Result struct {
	Trials []int
	// Cost[billing][policy][i] is the predicted cost at Trials[i].
	Cost map[string]map[string][]float64
}

// Fig11 runs the job-size sweep.
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	trials := []int{16, 32, 64, 128}
	if cfg.Fast {
		trials = []int{16, 32}
	}
	res := &Fig11Result{Trials: trials, Cost: make(map[string]map[string][]float64)}
	for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
		res.Cost[billing.String()] = map[string][]float64{"static": nil, "elastic": nil}
		for _, k := range trials {
			w := fig9Workload(cfg)
			w.billing = billing
			w.spec = spec.MustSHA(k, 4, 508, 2)
			if cfg.Fast {
				w.spec = spec.MustSHA(k, 4, 64, 2)
			}
			w.queue = 5
			w.initLat = 15
			w.deadline = 1800 // the sweep needs feasibility at k=128
			w.maxGPUs = 2 * k
			if w.maxGPUs < 64 {
				w.maxGPUs = 64
			}
			static, elastic, err := w.policyCosts()
			if err != nil {
				return nil, fmt.Errorf("fig11 k=%d billing=%v: %w", k, billing, err)
			}
			res.Cost[billing.String()]["static"] = append(res.Cost[billing.String()]["static"], static.Estimate.Cost)
			res.Cost[billing.String()]["elastic"] = append(res.Cost[billing.String()]["elastic"], elastic.Estimate.Cost)
		}
	}
	return res, nil
}

// String renders both panels.
func (r *Fig11Result) render() *table {
	t := &table{title: "Figure 11: simulated cost ($) vs number of trials"}
	t.header = []string{"billing", "policy"}
	for _, k := range r.Trials {
		t.header = append(t.header, fmt.Sprintf("n=%d", k))
	}
	for _, billing := range []string{"per-instance", "per-function"} {
		for _, policy := range []string{"static", "elastic"} {
			row := []string{billing, policy}
			for _, c := range r.Cost[billing][policy] {
				row = append(row, fmt.Sprintf("%.2f", c))
			}
			t.add(row...)
		}
	}
	return t
}

// String renders the result as an aligned text table.
func (r *Fig11Result) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *Fig11Result) CSV() string { return r.render().CSV() }
