package experiments

import (
	"fmt"

	"repro/internal/model"
)

// Fig10Result holds the data-I/O price sweep of Figure 10: total
// experiment cost for the static and elastic policies as ingress pricing
// grows from free to $0.16/GB, on a large dataset (ImageNet, 150 GB) and
// a small one (CIFAR-10, 150 MB). Expected shape: with ImageNet, I/O cost
// dominates at higher prices and the elastic advantage shrinks toward
// parity (but never inverts); with CIFAR-10, data cost is negligible and
// the elastic saving persists across the sweep.
type Fig10Result struct {
	Prices []float64 // $/GB
	// Cost[dataset][policy][i] is the predicted total cost at Prices[i].
	Cost map[string]map[string][]float64
}

// Fig10 runs the data-price sweep.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	prices := []float64{0, 0.01, 0.02, 0.04, 0.08, 0.16}
	if cfg.Fast {
		prices = []float64{0, 0.16}
	}
	datasets := []model.Dataset{model.ImageNet, model.CIFAR10}
	res := &Fig10Result{Prices: prices, Cost: make(map[string]map[string][]float64)}
	for _, ds := range datasets {
		res.Cost[ds.Name] = map[string][]float64{"static": nil, "elastic": nil}
		for _, price := range prices {
			w := fig9Workload(cfg)
			w.dataPrice = price
			w.datasetGB = ds.SizeGB
			w.initLat = 15
			w.queue = 5
			static, elastic, err := w.policyCosts()
			if err != nil {
				return nil, fmt.Errorf("fig10 dataset=%s price=%v: %w", ds.Name, price, err)
			}
			res.Cost[ds.Name]["static"] = append(res.Cost[ds.Name]["static"], static.Estimate.Cost)
			res.Cost[ds.Name]["elastic"] = append(res.Cost[ds.Name]["elastic"], elastic.Estimate.Cost)
		}
	}
	return res, nil
}

// String renders both panels.
func (r *Fig10Result) render() *table {
	t := &table{title: "Figure 10: impact of data I/O pricing on total experiment cost ($)"}
	t.header = []string{"dataset", "policy"}
	for _, p := range r.Prices {
		t.header = append(t.header, fmt.Sprintf("$%.2f/GB", p))
	}
	for _, ds := range []string{"imagenet", "cifar10"} {
		for _, policy := range []string{"static", "elastic"} {
			row := []string{ds, policy}
			for _, c := range r.Cost[ds][policy] {
				row = append(row, fmt.Sprintf("%.2f", c))
			}
			t.add(row...)
		}
	}
	return t
}

// String renders the result as an aligned text table.
func (r *Fig10Result) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *Fig10Result) CSV() string { return r.render().CSV() }
